package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// perLayerUnits declares the traced run's metrics — exactly
// BENCHMARK.json's per_layer list — with their units.
var perLayerUnits = map[string]string{
	"transport.self_us":             "us",
	"server.request_us":             "us",
	"server.decode_us":              "us",
	"server.encode_us":              "us",
	"server.queue_wait_us":          "us",
	"api.normalize_us":              "us",
	"api.key_us":                    "us",
	"api.resolve_us":                "us",
	"api.compiled_hit_ratio":        "ratio",
	"api.compute_us.evaluate":       "us",
	"api.compute_us.compare":        "us",
	"api.compute_us.crossover":      "us",
	"api.compute_us.timeline":       "us",
	"api.compute_us.sweep":          "us",
	"api.compute_us.mc":             "us",
	"api.compute_us.fleet":          "us",
	"api.encode_us":                 "us",
	"mc.draw_us":                    "us",
	"mc.allocs_per_draw":            "count",
	"mc.bytes_per_draw":             "B",
	"cache.get_ns":                  "ns",
	"cache.put_ns":                  "ns",
	"cache.hit_ratio":               "ratio",
	"store.put_us":                  "us",
	"store.get_us":                  "us",
	"store.delete_us":               "us",
	"store.write_amp":               "ratio",
	"store.garbage_ratio":           "ratio",
	"store.open_ms":                 "ms",
	"jobs.queue_wait_ms":            "ms",
	"jobs.chunk_ms":                 "ms",
	"jobs.checkpoint_us":            "us",
	"jobs.finalize_ms":              "ms",
	"jobs.overhead_ms":              "ms",
	"jobs.polls_per_job":            "count",
	"process.cpu_ms_per_op":         "ms",
	"trace.overhead_pct":            "%",
	"recon.result_hit_ratio_err":    "ratio",
	"recon.compiled_hit_ratio_err":  "ratio",
	"recon.stage_count_err.decode":  "count",
	"recon.stage_count_err.resolve": "count",
	"recon.stage_count_err.compute": "count",
	"recon.stage_count_err.encode":  "count",
	"recon.stage_fold.decode":       "ratio",
	"recon.stage_fold.resolve":      "ratio",
	"recon.stage_fold.compute":      "ratio",
	"recon.stage_fold.encode":       "ratio",
	"recon.job_chunks_err":          "count",
	"recon.store_bytes_fold":        "ratio",
}

// Replay sizes: the first replayOps[workload] timed operations of the
// run's sequence go through the in-process mirror.
var replayOps = map[string]int{"hit-floor": 2000, "cold-study": 256}

// replayResult is one mirror pass over the workload's inputs.
type replayResult struct {
	ops     int
	elapsed time.Duration
	stages  map[string]*stageAcc
	polls   int
	jobs    int
	// rcHit and cpHit are the result and compiled-platform cache hit
	// ratios over the pass; storeBytes is the store log growth,
	// resultBytes the job result records in it, garbage the store's
	// garbage share at the end and chunks the job chunks computed.
	rcHit, cpHit float64
	storeBytes   int64
	resultBytes  int64
	garbage      float64
	chunks       uint64
}

// replay runs the first n timed operations of w through a fresh
// mirror (over a copy of the store history at template when w has a
// store), after the workload's priming operations, which are neither
// traced nor counted.
func replay(w *workload, n int, tr *tracer, template, dir string) (*replayResult, error) {
	storeDir := ""
	if w.store {
		storeDir = dir
		if err := copyDir(template, storeDir); err != nil {
			return nil, err
		}
	}
	m, err := newMirror(newTracer(false), storeDir)
	if err != nil {
		return nil, err
	}
	for i, p := range w.prime {
		if err := m.run(p, -1-i); err != nil {
			m.close()
			return nil, fmt.Errorf("mirror priming: %w", err)
		}
	}
	m.tr = tr
	m.stages, m.jobs, m.polls, m.resultBytes = map[string]*stageAcc{}, 0, 0, 0
	rcH, rcM := m.lru.Stats()
	cpH, cpM := m.ev.CompileStats()
	var tail0 int64
	var chunks0 uint64
	if m.st != nil {
		tail0, _ = m.st.Size()
		chunks0 = m.mgr.Stats().ChunksComputed
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := m.run(w.op(w.warm+uint64(i)), i); err != nil {
			m.close()
			return nil, fmt.Errorf("mirror op %d: %w", i, err)
		}
	}
	res := &replayResult{
		ops: n, elapsed: time.Since(t0), stages: m.stages,
		polls: m.polls, jobs: m.jobs,
	}
	rcH2, rcM2 := m.lru.Stats()
	cpH2, cpM2 := m.ev.CompileStats()
	res.rcHit = ratio(float64(rcH2-rcH), float64(rcM2-rcM))
	res.cpHit = ratio(float64(cpH2-cpH), float64(cpM2-cpM))
	if m.st != nil {
		tail, garbage := m.st.Size()
		res.storeBytes, res.resultBytes = tail-tail0, m.resultBytes
		res.garbage = float64(garbage) / float64(tail)
		res.chunks = m.mgr.Stats().ChunksComputed - chunks0
	}
	if err := m.close(); err != nil {
		return nil, err
	}
	return res, os.RemoveAll(dir)
}

// stageOf returns the replay's stage accumulator (zero if absent).
func (r *replayResult) stageOf(s string) stageAcc {
	if a := r.stages[s]; a != nil {
		return *a
	}
	return stageAcc{}
}

// layerMetrics assembles the traced run's per-layer metrics: the
// server's own deltas over the timed window, the traced in-process
// replay of the same inputs, the layer probes, the jobs phase and its
// replay, and the reconciliation of each replay against the deltas.
// The jobs phase's operations count in res. ok is false when a
// reconciliation falls outside its tolerance.
func layerMetrics(o *options, w *workload, rd *runDir, win *window, before, after scrape, cpu time.Duration,
	res *result, log io.Writer) (map[string]metric, bool, error) {
	out := map[string]metric{}
	put := func(name string, v float64) {
		unit, ok := perLayerUnits[name]
		if !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
		out[name] = metric{v, unit}
	}
	sd := newServerDelta(before, after)
	ops := float64(win.ops)

	serverUS := perUS(sd.requestSec, sd.requests)
	put("server.request_us", serverUS)
	put("transport.self_us", us(win.http.total)/float64(win.http.n)-serverUS)
	put("server.decode_us", perUS(sd.stageSec["decode"], sd.stageN["decode"]))
	put("server.encode_us", perUS(sd.stageSec["encode"], sd.stageN["encode"]))
	put("server.queue_wait_us", perUS(sd.queueSec, sd.queueN))
	put("process.cpu_ms_per_op", ms(cpu)/ops)

	// Replay untraced and traced passes alternately; the fastest of
	// each gives the tracing overhead, the last traced pass the spans.
	n := replayOps[w.name]
	var tr *tracer
	var rr *replayResult
	best := map[bool]time.Duration{}
	for pass := 0; pass < 4; pass++ {
		on := pass%2 == 1
		t := newTracer(on)
		r, err := replay(w, n, t, "", rd.sub(fmt.Sprintf("mirror-%d", pass)))
		if err != nil {
			return nil, false, err
		}
		if b, seen := best[on]; !seen || r.elapsed < b {
			best[on] = r.elapsed
		}
		tr, rr = t, r
	}
	put("trace.overhead_pct", (best[true].Seconds()/best[false].Seconds()-1)*100)
	sum := tr.summarize()
	put("api.normalize_us", us(sum["api.normalize"].meanSelf()))
	put("api.key_us", us(sum["api.key"].meanSelf()))
	put("cache.get_ns", float64(sum["cache.get"].meanSelf()))
	put("cache.put_ns", float64(sum["cache.put"].meanSelf()))
	put("cache.hit_ratio", rr.rcHit)
	put("api.compiled_hit_ratio", rr.cpHit)

	as := apiFromSpans(w, tr)
	if err := computeProbe(w, as); err != nil {
		return nil, false, err
	}
	for _, name := range endpointOrder {
		put("api.compute_us."+name, median(as.compute[name])/1e3)
	}
	put("api.resolve_us", mean(as.resolve)/1e3)
	put("api.encode_us", mean(as.encode)/1e3)

	draw, allocs, bytes, err := mcProbe(w.seed)
	if err != nil {
		return nil, false, err
	}
	put("mc.draw_us", draw)
	put("mc.allocs_per_draw", allocs)
	put("mc.bytes_per_draw", bytes)

	// The jobs phase serves durable-jobs operations over the seed's
	// store history; a replay of the same operations through the real
	// jobs.Manager over the store gives the jobs layer, the store reads
	// and the log growth.
	dj := durableJobs(w.seed)
	jl, err := newLauncher(o, dj, rd)
	if err != nil {
		return nil, false, err
	}
	jwin, jsd, err := jobsPhase(jl, dj)
	if err != nil {
		return nil, false, err
	}
	res.Attempted += jwin.ops
	res.Failed += jwin.failed
	if jwin.firstErr != nil {
		fmt.Fprintln(log, "jobs phase gate:", jwin.firstErr)
	}
	jobsTr := newTracer(true)
	jr, err := replay(dj, jobsPhaseOps, jobsTr, jl.history, rd.sub("mirror-jobs"))
	if err != nil {
		return nil, false, err
	}
	put("store.get_us", median(jobsTr.durations("store.get"))/1e3)
	put("store.write_amp", float64(jr.storeBytes)/float64(jr.resultBytes))
	put("store.garbage_ratio", jr.garbage)
	queue, chunk, ckpt, final, overhead := jobStats(jobsTr)
	put("jobs.queue_wait_ms", ms(queue))
	put("jobs.chunk_ms", ms(chunk))
	put("jobs.checkpoint_us", us(ckpt))
	put("jobs.finalize_ms", ms(final))
	put("jobs.overhead_ms", ms(overhead))
	put("jobs.polls_per_job", float64(jr.polls)/float64(jr.jobs))

	stTr := newTracer(true)
	ss, err := storeProbe(w.seed, jl.history, rd, stTr)
	if err != nil {
		return nil, false, err
	}
	put("store.open_ms", ss.openMS)
	put("store.put_us", us(ss.put))
	put("store.delete_us", us(ss.del))

	check, ok := newCheck(put, log)
	reconcile(w, win, sd, rr, check)
	reconcileJobs(jwin, jsd, jr, check)
	spans := map[string][]span{"replay": tr.spans, "jobs": jobsTr.spans, "store": stTr.spans}
	if err := writeSpans(rd, w, spans); err != nil {
		return nil, false, err
	}
	if len(out) != len(perLayerUnits) {
		return nil, false, fmt.Errorf("emitted %d per-layer metrics, declared %d", len(out), len(perLayerUnits))
	}
	return out, *ok, nil
}

// jobsPhase drives the first jobsPhaseOps operations of dj against a
// fresh `serve -store` over the seed's store history, with the jobs
// gates (job bytes equal the synchronous bytes, which come from the
// store), and returns the operations with the server's /metrics deltas
// over them.
func jobsPhase(l *launcher, dj *workload) (*window, *serverDelta, error) {
	var setup []float64
	srv, c, refs, err := l.launch(&setup)
	if err != nil {
		return nil, nil, err
	}
	before, err := scrapeMetrics(c)
	if err != nil {
		c.close()
		srv.kill()
		return nil, nil, err
	}
	win := drive(c, dj, dj.warm, dj.warm+jobsPhaseOps, 0, checker(dj, refs))
	after, err := scrapeMetrics(c)
	c.close()
	if err != nil {
		srv.kill()
		return nil, nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, nil, fmt.Errorf("stopping the jobs-phase server: %w", err)
	}
	return win, newServerDelta(before, after), nil
}

// writeSpans writes the run's spans to
// .bench_build/traces/<workload>-seed<seed>.json, beside the run
// directory.
func writeSpans(rd *runDir, w *workload, spans map[string][]span) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(rd.path)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, w.seed)), b, 0o644)
}
