package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"greenfpga/api"
	"greenfpga/internal/store"
	"greenfpga/internal/telemetry"
)

// Probe sizes.
const (
	// computeProbeOps is how many operations of the sequence the
	// compute probe runs when the traced replay served no synchronous
	// miss, for the resolve and encode stages.
	computeProbeOps = 48
	// computeProbeMin is the fewest compute samples per endpoint;
	// endpoints the replay computed less often are topped up with
	// their fixed body.
	computeProbeMin = 5
	// mcProbeStudies is how many served-config Monte-Carlo studies the
	// MC probe measures.
	mcProbeStudies = 8
	// storeProbeJobs is how many job footprints the store probe lays
	// down over the history.
	storeProbeJobs = 12
	// jobsPhaseOps is how many durable-jobs operations the traced
	// run's jobs phase serves and replays.
	jobsPhaseOps = 12
	// storeOpens is how many times the store probe times Open.
	storeOpens = 3
)

// apiSamples holds api-layer stage times in nanoseconds: the compute
// stage per endpoint, and the resolve and encode stages.
type apiSamples struct {
	compute         map[string][]float64
	resolve, encode []float64
}

// apiFromSpans reads the api stages from a traced replay of w: every
// synchronous miss records api.resolve, api.compute and api.encode
// spans under its request, whose index gives the endpoint. Job
// operations are left out; their stages run as job chunks.
func apiFromSpans(w *workload, tr *tracer) *apiSamples {
	a := &apiSamples{compute: map[string][]float64{}}
	for req, spans := range tr.byReq() {
		if req < 0 {
			continue
		}
		o := w.op(w.warm + uint64(req))
		if o.job {
			continue
		}
		for _, s := range spans {
			d := float64(s.End - s.Start)
			switch s.Name {
			case "api.compute":
				a.compute[o.ep.name] = append(a.compute[o.ep.name], d)
			case "api.resolve":
				a.resolve = append(a.resolve, d)
			case "api.encode":
				a.encode = append(a.encode, d)
			}
		}
	}
	return a
}

// computeProbe tops up what the traced replay did not compute. Each
// endpoint with fewer than computeProbeMin compute samples runs its
// fixed body until it has them, and when the replay served no
// synchronous miss (hit-floor) the first computeProbeOps operations of
// w give the resolve and encode stages. Runs go through Evaluator.Run*
// and EncodeJSON with the result cache bypassed, on an evaluator whose
// compiled platforms are warm.
func computeProbe(w *workload, a *apiSamples) error {
	ev := api.NewEvaluator(compiledPlatforms)
	ctx := context.Background()
	var own, extra []op
	if len(a.resolve) == 0 {
		for i := 0; i < computeProbeOps; i++ {
			own = append(own, w.op(w.warm+uint64(i)))
		}
	}
	fixed := fixedBodies()
	for _, name := range endpointOrder {
		for k := len(a.compute[name]); k < computeProbeMin; k++ {
			extra = append(extra, op{ep: endpoints[name], body: fixed[name]})
		}
	}
	ops := append(own, extra...)
	for _, o := range ops { // warm the compiled-platform cache
		if _, err := recompute(ctx, ev, o); err != nil {
			return err
		}
	}
	for i, o := range ops {
		req, err := o.ep.decode(o.body)
		if err != nil {
			return err
		}
		tt := telemetry.NewTrace("probe")
		out, err := o.ep.run(telemetry.WithTrace(ctx, tt), ev, o.ep.normalize(req))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := api.EncodeJSON(out); err != nil {
			return err
		}
		enc := float64(time.Since(t0))
		for _, s := range tt.Stages() {
			switch {
			case s.Name == "compute" && i >= len(own):
				a.compute[o.ep.name] = append(a.compute[o.ep.name], float64(s.Duration))
			case s.Name == "resolve" && i < len(own):
				a.resolve = append(a.resolve, float64(s.Duration))
			}
		}
		if i < len(own) {
			a.encode = append(a.encode, enc)
		}
	}
	return nil
}

// mcProbe measures the Monte-Carlo engine on the served
// configuration: /v1/mc's study shape (DNN FPGA:ASIC), which
// api.Evaluator.RunMonteCarlo builds with
// greenfpga.DomainRatioStudyConfig. drawUS is the median wall time per
// draw of a coldMCDraws study; allocs and bytes are the median
// marginal heap allocations and bytes per draw — the difference
// between a 2×coldMCDraws and a coldMCDraws study over coldMCDraws —
// so the per-study constant (tornado, percentiles, worker start-up)
// cancels and the count repeats exactly.
func mcProbe(seed uint64) (drawUS, allocs, bytes float64, err error) {
	ev := api.NewEvaluator(compiledPlatforms)
	ctx := context.Background()
	study := func(draws int, s int64) (time.Duration, runtime.MemStats, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err := ev.RunMonteCarlo(ctx, api.MonteCarloRequest{Domain: "DNN", Samples: draws, Seed: s})
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		m1.Mallocs -= m0.Mallocs
		m1.TotalAlloc -= m0.TotalAlloc
		return el, m1, err
	}
	if _, _, err := study(coldMCDraws, 1); err != nil {
		return 0, 0, 0, err
	}
	var d, a, b []float64
	for k := 0; k < mcProbeStudies; k++ {
		s := int64(saltBase(seed)) + int64(k) + 2
		el, one, err := study(coldMCDraws, s)
		if err != nil {
			return 0, 0, 0, err
		}
		_, two, err := study(2*coldMCDraws, s)
		if err != nil {
			return 0, 0, 0, err
		}
		d = append(d, us(el)/coldMCDraws)
		a = append(a, (float64(two.Mallocs)-float64(one.Mallocs))/coldMCDraws)
		b = append(b, (float64(two.TotalAlloc)-float64(one.TotalAlloc))/coldMCDraws)
	}
	// Counted to a tenth of an allocation per draw: finer digits are
	// the runtime's own background allocations.
	return median(d), math.Round(median(a)*10) / 10, median(b), nil
}

// storeStats is the store probe's outcome.
type storeStats struct {
	openMS   float64
	put, del time.Duration
}

// storeProbe times store.Open over copies of the seed's history, then
// lays storeProbeJobs further job footprints over it with a span
// around every store call. The footprints replicate the jobs manager's
// call sequence (layDown): jobs.Options takes a concrete *store.Store,
// so the manager's own puts and deletes cannot be timed from outside.
func storeProbe(seed uint64, template string, rd *runDir, tr *tracer) (*storeStats, error) {
	var opens []float64
	for k := 0; k < storeOpens; k++ {
		dir := rd.sub(fmt.Sprintf("open-%d", k))
		if err := copyDir(template, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(t0)))
		if err := st.Close(); err != nil {
			return nil, err
		}
		if k < storeOpens-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	st, err := store.Open(rd.sub(fmt.Sprintf("open-%d", storeOpens-1)))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ev := api.NewEvaluator(compiledPlatforms)
	r := rng(seed, historySalt+1)
	base := saltBase(seed)
	for j := 0; j < storeProbeJobs; j++ {
		h, err := newHistoryJob(ev, r, jobBody(base+historySalt/2+uint64(j)), j)
		if err != nil {
			return nil, err
		}
		if err := h.layDown(st, tr, j); err != nil {
			return nil, err
		}
	}
	sum := tr.summarize()
	return &storeStats{openMS: median(opens), put: sum["store.put"].meanTotal(), del: sum["store.delete"].meanTotal()}, nil
}

// jobStats derives the jobs-layer times from a replay's spans: queue
// wait (submit returned → first chunk starts), chunk compute, the
// checkpoint step between consecutive chunks (and before finalize),
// finalize, and the overhead — the job's lifetime from submit to the
// poll that saw it done, minus chunk and finalize time.
func jobStats(tr *tracer) (queue, chunk, ckpt, final, overhead time.Duration) {
	var jobs, chunks int
	for req, spans := range tr.byReq() {
		if req < 0 {
			continue
		}
		var submit, result, fin span
		var cs []span
		for _, s := range spans {
			switch s.Name {
			case "jobs.submit":
				submit = s
			case "jobs.result":
				result = s
			case "jobs.chunk":
				cs = append(cs, s)
			case "jobs.finalize":
				fin = s
			}
		}
		if result.Name == "" || fin.Name == "" || len(cs) == 0 {
			continue
		}
		jobs++
		queue += time.Duration(cs[0].Start - submit.End)
		work := time.Duration(fin.End - fin.Start)
		final += work
		for i, c := range cs {
			chunks++
			chunk += time.Duration(c.End - c.Start)
			work += time.Duration(c.End - c.Start)
			next := fin.Start
			if i+1 < len(cs) {
				next = cs[i+1].Start
			}
			ckpt += time.Duration(next - c.End)
		}
		overhead += time.Duration(result.Start-submit.Start) - work
	}
	if jobs == 0 {
		return 0, 0, 0, 0, 0
	}
	n, c := time.Duration(jobs), time.Duration(chunks)
	return queue / n, chunk / c, ckpt / c, final / n, overhead / n
}
