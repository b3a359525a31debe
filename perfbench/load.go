package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"greenfpga/api"
)

// Load shape: one process, a closed loop of two clients over two
// keep-alive connections.
const (
	clients = 2
	// pollInterval spaces a durable-jobs client's status polls.
	pollInterval = 2 * time.Millisecond
	// jobDeadline bounds one job's wait; a job slower than this fails.
	jobDeadline = 60 * time.Second
)

// client sends requests over a bounded keep-alive pool and counts the
// HTTP exchanges it made, for the transport split.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange.
type reply struct {
	status int
	cache  string
	body   []byte
}

// do performs one exchange, adding its latency to *http.
func (c *client) do(method, path string, body []byte, hs *httpStats) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if hs != nil {
		hs.n++
		hs.total += time.Since(t0)
	}
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// httpStats accumulates one client's HTTP exchanges.
type httpStats struct {
	n     int64
	total time.Duration
}

// result of one operation.
type opResult struct {
	err   error
	body  []byte // the synchronous response body
	cache string
}

// run executes one operation.
func (c *client) run(o op, hs *httpStats) opResult {
	if o.job {
		return c.runJob(o, hs)
	}
	r, err := c.do(http.MethodPost, o.ep.path, o.body, hs)
	if err != nil {
		return opResult{err: err}
	}
	if r.status != http.StatusOK {
		return opResult{err: fmt.Errorf("%s: status %d: %s", o.ep.path, r.status, r.body)}
	}
	return opResult{body: r.body, cache: r.cache}
}

// runJob submits o as a job, polls it to completion, fetches the
// result and re-POSTs the same body to the synchronous endpoint. The
// gate: the job's bytes equal the synchronous bytes, and the re-POST
// is answered from the durable store.
func (c *client) runJob(o op, hs *httpStats) opResult {
	sub := mustJSON(api.JobSubmitRequest{Endpoint: o.ep.name, Request: o.body})
	r, err := c.do(http.MethodPost, "/v1/jobs", sub, hs)
	if err != nil {
		return opResult{err: err}
	}
	if r.status != http.StatusAccepted {
		return opResult{err: fmt.Errorf("submit: status %d: %s", r.status, r.body)}
	}
	var st api.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		return opResult{err: fmt.Errorf("submit reply: %w", err)}
	}
	deadline := time.Now().Add(jobDeadline)
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" || time.Now().After(deadline) {
			return opResult{err: fmt.Errorf("job %s ended %s (%v)", st.ID, st.State, st.Error)}
		}
		time.Sleep(pollInterval)
		r, err = c.do(http.MethodGet, "/v1/jobs/"+st.ID, nil, hs)
		if err != nil {
			return opResult{err: err}
		}
		if r.status != http.StatusOK {
			return opResult{err: fmt.Errorf("poll: status %d", r.status)}
		}
		if err := json.Unmarshal(r.body, &st); err != nil {
			return opResult{err: fmt.Errorf("poll reply: %w", err)}
		}
	}
	res, err := c.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, hs)
	if err != nil {
		return opResult{err: err}
	}
	if res.status != http.StatusOK {
		return opResult{err: fmt.Errorf("result: status %d", res.status)}
	}
	sync, err := c.do(http.MethodPost, o.ep.path, o.body, hs)
	if err != nil {
		return opResult{err: err}
	}
	out := opResult{body: sync.body, cache: sync.cache}
	switch {
	case sync.status != http.StatusOK:
		out.err = fmt.Errorf("sync re-POST: status %d", sync.status)
	case sync.cache != "store":
		out.err = fmt.Errorf("sync re-POST answered X-Cache %q, want store", sync.cache)
	case !bytes.Equal(res.body, sync.body):
		out.err = fmt.Errorf("job %s bytes differ from the sync bytes", st.ID)
	}
	return out
}

// window is what one closed-loop phase observed.
type window struct {
	ops, failed int
	elapsed     time.Duration
	lat         []time.Duration // one per operation
	end         []time.Duration // each operation's completion, from the window start
	http        httpStats
	// kept holds the bodies of operations selected for in-process
	// recomputation, by operation index.
	kept map[uint64][]byte
	// firstErr is the first failure, for the log.
	firstErr error
}

// drive runs the closed loop: clients pull operation indices from one
// shared counter starting at from, each sending its next request only
// after the previous one completed. It stops at index limit (limit >
// from) or, with limit 0, once d has elapsed; operations in flight at
// the deadline finish and count. check validates each response.
func drive(c *client, w *workload, from, limit uint64, d time.Duration,
	check func(o op, r opResult) error) *window {
	var next atomic.Uint64
	next.Store(from)
	parts := make([]*window, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range parts {
		part := &window{kept: map[uint64][]byte{}}
		parts[i] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit == 0 && !time.Now().Before(deadline) {
					return
				}
				n := next.Add(1) - 1
				if limit != 0 && n >= limit {
					return
				}
				o := w.op(n)
				t0 := time.Now()
				r := c.run(o, &part.http)
				t1 := time.Now()
				part.lat = append(part.lat, t1.Sub(t0))
				part.end = append(part.end, t1.Sub(start))
				part.ops++
				if r.err == nil {
					r.err = check(o, r)
				}
				if r.err != nil {
					part.failed++
					if part.firstErr == nil {
						part.firstErr = fmt.Errorf("op %d (%s): %w", n, o.ep.name, r.err)
					}
					continue
				}
				if w.gateEvery != 0 && n%w.gateEvery == 0 {
					part.kept[n] = r.body
				}
			}
		}()
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start), kept: map[uint64][]byte{}}
	for _, p := range parts {
		out.ops += p.ops
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		out.end = append(out.end, p.end...)
		out.http.n += p.http.n
		out.http.total += p.http.total
		for k, v := range p.kept {
			out.kept[k] = v
		}
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// blocks splits the timed window into consecutive blocks of length b
// by completion time and returns each full block's throughput (1/s)
// and q-quantile latency (ms). Completions after the last full block —
// the operations in flight at the deadline — are left out.
func (w *window) blocks(b time.Duration, q float64) (rps, lat []float64) {
	n := int(w.elapsed / b)
	per := make([][]time.Duration, n)
	for i, e := range w.end {
		if k := int(e / b); k < n {
			per[k] = append(per[k], w.lat[i])
		}
	}
	for _, l := range per {
		rps = append(rps, float64(len(l))/b.Seconds())
		lat = append(lat, ms(percentile(l, q)))
	}
	return rps, lat
}

// percentile is the nearest-rank q-quantile of raw samples (0<q<=1):
// the smallest sample with at least q of all samples at or below it.
// Percentiles are always read from the raw samples, never from the
// server's bucketed histograms.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median of float samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of float samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
