package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"greenfpga/api"
	"greenfpga/internal/cache"
	"greenfpga/internal/jobs"
	"greenfpga/internal/store"
	"greenfpga/internal/telemetry"
)

// stageAcc mirrors one greenfpga_stage_duration_seconds series: how
// many requests recorded the stage and their summed time.
type stageAcc struct {
	n     int
	total time.Duration
}

// mirror replays operations in-process through the layers the server
// composes — decode, api.Normalized, api.CanonicalKey, the result LRU,
// the durable store, api.Evaluator, api.EncodeJSON and the jobs
// manager — in the order its handlers call them, recording a span
// around each call. It keeps the server's per-request stage
// accounting (decode, resolve, compute, encode) so the replay can be
// reconciled with the server's /metrics deltas over the same inputs.
type mirror struct {
	tr  *tracer
	ev  *api.Evaluator
	lru *cache.LRU
	st  *store.Store  // nil without a store
	mgr *jobs.Manager // nil without a store

	stages map[string]*stageAcc
	jobs   int
	polls  int
	// resultBytes counts the key and value bytes of the job results
	// the manager stored.
	resultBytes int64
	out         bytes.Buffer // the response sink ("the wire")

	mu    sync.Mutex
	owner map[string][2]int // job result key → {req, root span}
}

// Server defaults the mirror reproduces.
const (
	resultCacheEntries = 1024
	compiledPlatforms  = 256
)

// newMirror builds a mirror; with storeDir set it opens a store there
// and runs a jobs manager over it, like `serve -store`.
func newMirror(tr *tracer, storeDir string) (*mirror, error) {
	m := &mirror{
		tr:     tr,
		ev:     api.NewEvaluator(compiledPlatforms),
		lru:    cache.New(resultCacheEntries),
		stages: map[string]*stageAcc{},
		owner:  map[string][2]int{},
	}
	if storeDir == "" {
		return m, nil
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.New(jobs.Options{Store: st, Build: m.builder(), Workers: 1})
	if err != nil {
		st.Close()
		return nil, err
	}
	m.st, m.mgr = st, mgr
	return m, nil
}

// close stops the jobs manager and closes the store.
func (m *mirror) close() error {
	if m.mgr == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := m.mgr.Shutdown(ctx)
	if cerr := m.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// reqStages accumulates one request's stages, as the server's
// telemetry.Trace does.
type reqStages map[string]time.Duration

// finish flushes one request's stages into the mirror's accounting.
func (m *mirror) finish(rs reqStages) {
	for name, d := range rs {
		acc := m.stages[name]
		if acc == nil {
			acc = &stageAcc{}
			m.stages[name] = acc
		}
		acc.n++
		acc.total += d
	}
}

// timed runs f inside a span and returns its duration.
func (m *mirror) timed(name string, parent, req int, f func()) time.Duration {
	id := m.tr.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m.tr.end(id)
	return d
}

// apiStages records the resolve and compute stages the api layer
// timed on tt as children of span parent, laid end to end from its
// start, and adds them to the request's stages.
func (m *mirror) apiStages(tt *telemetry.Trace, parent, req int, rs reqStages) {
	at := m.tr.startOf(parent)
	for _, s := range tt.Stages() {
		rs[s.Name] += s.Duration
		at = m.tr.record("api."+s.Name, parent, req, at, s.Duration)
	}
}

// write answers with stored bytes the way the server's handlers do —
// X-Cache, Content-Type and Content-Length headers, then one write to
// the sink — timed as the encode stage.
func (m *mirror) write(body []byte, state string, parent, req int, rs reqStages) {
	rs["encode"] += m.timed("server.write", parent, req, func() {
		h := http.Header{}
		h.Set("X-Cache", state)
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		m.out.Reset()
		m.out.Write(body)
	})
}

// serveSync serves one synchronous compute request: decode, normalize,
// key, LRU, store, compute and encode on a miss, then the write.
func (m *mirror) serveSync(o op, req, parent int) (body []byte, state string, err error) {
	root := m.tr.begin("server.request", parent, req)
	defer m.tr.end(root)
	rs := reqStages{}
	defer m.finish(rs)
	var r any
	rs["decode"] += m.timed("server.decode", root, req, func() { r, err = o.ep.decode(o.body) })
	if err != nil {
		return nil, "", err
	}
	var norm any
	m.timed("api.normalize", root, req, func() { norm = o.ep.normalize(r) })
	var key string
	m.timed("api.key", root, req, func() { key, err = api.CanonicalKey(o.ep.path, norm) })
	if err != nil {
		return nil, "", err
	}
	var hit any
	var ok bool
	m.timed("cache.get", root, req, func() { hit, ok = m.lru.Get(key) })
	switch {
	case ok:
		body, state = hit.([]byte), "hit"
	case m.st != nil && m.fromStore(key, root, req, &body):
		state = "store"
	default:
		state = "miss"
		tt := telemetry.NewTrace("mirror")
		ctx := telemetry.WithTrace(context.Background(), tt)
		var out any
		run := m.tr.begin("api.run", root, req)
		out, err = o.ep.run(ctx, m.ev, norm)
		m.tr.end(run)
		m.apiStages(tt, run, req, rs)
		if err != nil {
			return nil, "", err
		}
		rs["encode"] += m.timed("api.encode", root, req, func() { body, err = api.EncodeJSON(out) })
		if err != nil {
			return nil, "", err
		}
		m.timed("cache.put", root, req, func() { m.lru.Put(key, body) })
		if m.st != nil {
			m.timed("store.put", root, req, func() { err = m.st.Put("result:"+key, body) })
			if err != nil {
				return nil, "", err
			}
		}
	}
	m.write(body, state, root, req, rs)
	return body, state, nil
}

// fromStore reads a durable result into *body.
func (m *mirror) fromStore(key string, parent, req int, body *[]byte) bool {
	var ok bool
	var err error
	m.timed("store.get", parent, req, func() { *body, ok, err = m.st.Get("result:" + key) })
	return err == nil && ok
}

// jobStatus is the wire shape the server answers for a job record.
func jobStatus(rec jobs.Record) api.JobStatus {
	return api.JobStatus{
		ID: rec.ID, Endpoint: rec.Endpoint, State: string(rec.State),
		Chunks: rec.Chunks, ChunksDone: rec.ChunksDone, Key: rec.Key,
		CreatedUnixMs: rec.CreatedUnixMs, UpdatedUnixMs: rec.UpdatedUnixMs,
	}
}

// encodeStatus encodes a job status reply (the encode stage).
func (m *mirror) encodeStatus(rec jobs.Record, parent, req int, rs reqStages) error {
	var err error
	rs["encode"] += m.timed("api.encode", parent, req, func() {
		var b []byte
		if b, err = api.EncodeJSON(jobStatus(rec)); err == nil {
			m.out.Reset()
			m.out.Write(b)
		}
	})
	return err
}

// runJob replays one durable-jobs operation: submit, poll every
// pollInterval until done, fetch the result, re-serve the same body
// synchronously (which must come from the store, byte-identical).
func (m *mirror) runJob(o op, req int) error {
	root := m.tr.begin("job", -1, req)
	defer m.tr.end(root)
	sub := mustJSON(api.JobSubmitRequest{Endpoint: o.ep.name, Request: o.body})

	rs := reqStages{}
	var js api.JobSubmitRequest
	var err error
	rs["decode"] += m.timed("server.decode", root, req, func() {
		dec := json.NewDecoder(bytes.NewReader(sub))
		dec.DisallowUnknownFields()
		err = dec.Decode(&js)
	})
	if err != nil {
		return err
	}
	// The chunk and finalize spans run on the manager's goroutine; key
	// them to this operation before the job can start.
	r, err := o.ep.decode(js.Request)
	if err != nil {
		return err
	}
	key, err := api.CanonicalKey(o.ep.path, o.ep.normalize(r))
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.owner[key] = [2]int{req, root}
	m.mu.Unlock()
	tt := telemetry.NewTrace("mirror")
	var rec jobs.Record
	submit := m.tr.begin("jobs.submit", root, req)
	rec, err = m.mgr.Submit(telemetry.WithTrace(context.Background(), tt), js.Endpoint, js.Request)
	m.tr.end(submit)
	m.apiStages(tt, submit, req, rs)
	if err != nil {
		return err
	}
	if err := m.encodeStatus(rec, root, req, rs); err != nil {
		return err
	}
	m.finish(rs)

	deadline := time.Now().Add(jobDeadline)
	for rec.State != jobs.StateDone {
		if rec.State == jobs.StateFailed || rec.State == jobs.StateCanceled || time.Now().After(deadline) {
			return fmt.Errorf("job %s ended %s: %s", rec.ID, rec.State, rec.Error)
		}
		time.Sleep(pollInterval)
		m.polls++
		rs := reqStages{}
		poll := m.tr.begin("jobs.poll", root, req)
		rec, err = m.mgr.Status(rec.ID)
		if err == nil {
			err = m.encodeStatus(rec, poll, req, rs)
		}
		m.tr.end(poll)
		m.finish(rs)
		if err != nil {
			return err
		}
	}

	rs = reqStages{}
	var res []byte
	m.timed("jobs.result", root, req, func() { _, res, err = m.mgr.Result(rec.ID) })
	if err != nil {
		return err
	}
	m.write(res, "store", root, req, rs)
	m.finish(rs)
	m.resultBytes += int64(len("result:"+rec.Key) + len(res))

	body, state, err := m.serveSync(o, req, root)
	if err != nil {
		return err
	}
	if state != "store" || !bytes.Equal(body, res) {
		return fmt.Errorf("job %s: re-serve answered %s with %d bytes, want the job's %d bytes from the store",
			rec.ID, state, len(body), len(res))
	}
	m.jobs++
	return nil
}

// run replays one operation.
func (m *mirror) run(o op, req int) error {
	if o.job {
		return m.runJob(o, req)
	}
	_, _, err := m.serveSync(o, req, -1)
	return err
}

// builder wraps api.Evaluator.NewStudy so the jobs manager's chunk and
// finalize calls are recorded as spans of the operation that owns the
// job.
func (m *mirror) builder() jobs.Builder {
	inner := jobs.EvaluatorBuilder(m.ev)
	return func(ctx context.Context, endpoint string, raw json.RawMessage) (jobs.Study, string, error) {
		s, key, err := inner(ctx, endpoint, raw)
		if err != nil {
			return nil, "", err
		}
		m.mu.Lock()
		own, ok := m.owner[key]
		m.mu.Unlock()
		if !ok {
			own = [2]int{-1, -1}
		}
		return &tracedStudy{Study: s, tr: m.tr, req: own[0], parent: own[1]}, key, nil
	}
}

// tracedStudy records a span around each chunk and the finalize.
type tracedStudy struct {
	jobs.Study
	tr          *tracer
	req, parent int
}

func (s *tracedStudy) ComputeChunk(ctx context.Context, i int) ([]byte, error) {
	id := s.tr.begin("jobs.chunk", s.parent, s.req)
	defer s.tr.end(id)
	return s.Study.ComputeChunk(ctx, i)
}

func (s *tracedStudy) Finalize(ctx context.Context, chunks [][]byte) ([]byte, error) {
	id := s.tr.begin("jobs.finalize", s.parent, s.req)
	defer s.tr.end(id)
	return s.Study.Finalize(ctx, chunks)
}
