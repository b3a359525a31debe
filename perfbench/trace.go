package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Req; Parent indexes the span that caused this one (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the
// run ends. A tracer that is off records nothing, so the same replay
// code runs traced and untraced and the difference is the overhead.
// It is safe for concurrent use (job chunks run on the jobs manager's
// goroutine).
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: start})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed span of duration d starting at start (tracer
// time): a stage the api layer timed itself inside a span of ours.
func (t *tracer) record(name string, parent, req int, start int64, d time.Duration) int64 {
	if !t.on {
		return start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: start + int64(d)})
	return start + int64(d)
}

// startOf returns span id's start (tracer time).
func (t *tracer) startOf(id int) int64 {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n           int
	total, self time.Duration
}

func (l *layerStat) meanSelf() time.Duration {
	if l == nil || l.n == 0 {
		return 0
	}
	return l.self / time.Duration(l.n)
}

func (l *layerStat) meanTotal() time.Duration {
	if l == nil || l.n == 0 {
		return 0
	}
	return l.total / time.Duration(l.n)
}

// summarize aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover.
func (t *tracer) summarize() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.total += d
		st.self += d - t.covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64
	reach = s.Start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		total += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return time.Duration(total)
}

// byReq returns the spans of each operation, in recording order.
func (t *tracer) byReq() map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int][]span{}
	for _, s := range t.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// durations returns the durations in nanoseconds of the spans named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}
