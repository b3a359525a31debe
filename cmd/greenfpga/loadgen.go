package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greenfpga/api"
	"greenfpga/client"
	"greenfpga/internal/telemetry"
)

// loadgen endpoints: each name maps to one fixed, representative
// request. The bodies are constant on purpose — after the first hit
// every repeat is a result-cache hit, so the ramp measures the serving
// floor (transport, decode, cache lookup, encode) rather than compute
// throughput; mixing in "mc" or "sweep" adds compute-bound traffic.
// With -unique, endpoints that can salt their bodies (a free-text
// name or seed) make every request a fresh content address instead,
// so the ramp tracks the cold miss path — decode, resolve, compute,
// encode — rather than the hit floor.
type lgEndpoint struct {
	name   string
	weight int
	call   func(ctx context.Context, c *client.Client) error
	// unique, when non-nil, issues the salted variant: request n must
	// produce a CanonicalKey no other request produces.
	unique func(ctx context.Context, c *client.Client, n uint64) error
}

// lgCall is one endpoint's fixed and salted request shapes.
type lgCall struct {
	call   func(ctx context.Context, c *client.Client) error
	unique func(ctx context.Context, c *client.Client, n uint64) error
}

// lgCalls builds the endpoint table against one client.
func lgCalls() map[string]lgCall {
	evalReq := &api.EvaluateRequest{
		Platforms: []api.PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Domain: "DNN", Kind: "asic"}},
		Workload:  &api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6},
	}
	return map[string]lgCall{
		"healthz": {call: func(ctx context.Context, c *client.Client) error {
			return c.Health(ctx)
		}},
		"devices": {call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Devices(ctx)
			return err
		}},
		"evaluate": {
			call: func(ctx context.Context, c *client.Client) error {
				_, err := c.Evaluate(ctx, evalReq)
				return err
			},
			// The scenario name rides into the canonical key, so a
			// salted name is a guaranteed result-cache miss with
			// identical (O(1), compiled-cache-warm) compute — the
			// purest view of the cold decode/resolve/encode path.
			unique: func(ctx context.Context, c *client.Client, n uint64) error {
				req := *evalReq
				req.Name = "lg-unique-" + strconv.FormatUint(n, 10)
				_, err := c.Evaluate(ctx, &req)
				return err
			},
		},
		"compare": {call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Compare(ctx, api.CompareRequest{Domain: "DNN"})
			return err
		}},
		"crossover": {call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Crossover(ctx, api.CrossoverRequest{Domain: "DNN"})
			return err
		}},
		"sweep": {call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Sweep(ctx, api.SweepRequest{Domain: "DNN", Axis: "napps"})
			return err
		}},
		"timeline": {call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Timeline(ctx, api.TimelineRequest{Domain: "DNN"})
			return err
		}},
		"fleet": {call: func(ctx context.Context, c *client.Client) error {
			// The full-registry siting study: 12 regions x 2 platforms,
			// four of them trace-integrated, with the per-region A2F
			// solves — the compute-heaviest fixed body in the mix.
			_, err := c.Fleet(ctx, api.FleetRequest{Domain: "DNN"})
			return err
		}},
		"mc": {
			call: func(ctx context.Context, c *client.Client) error {
				_, err := c.MonteCarlo(ctx, api.MonteCarloRequest{Domain: "DNN", Samples: 500})
				return err
			},
			// A salted seed is a fresh content address whose compute is
			// real (500 draws) — the compute-bound miss profile.
			unique: func(ctx context.Context, c *client.Client, n uint64) error {
				_, err := c.MonteCarlo(ctx, api.MonteCarloRequest{
					Domain: "DNN", Samples: 500, Seed: int64(n + 1)})
				return err
			},
		},
	}
}

// parseEndpointMix parses "-endpoints": comma-separated name[:weight]
// entries (e.g. "evaluate:4,mc:1"). With unique set, every listed
// endpoint must support body salting.
func parseEndpointMix(s string, calls map[string]lgCall, unique bool) ([]lgEndpoint, error) {
	var out []lgEndpoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, ":")
		w := 1
		if hasW {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w < 1 {
				return nil, fmt.Errorf("entry %q: weight must be a positive integer", part)
			}
		}
		call, ok := calls[name]
		if !ok {
			known := make([]string, 0, len(calls))
			for k := range calls {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown endpoint %q (have: %s)", name, strings.Join(known, ", "))
		}
		if unique && call.unique == nil {
			return nil, fmt.Errorf("endpoint %q has no salt-able body; -unique supports: %s",
				name, strings.Join(uniqueNames(calls), ", "))
		}
		out = append(out, lgEndpoint{name: name, weight: w, call: call.call, unique: call.unique})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty endpoint mix")
	}
	return out, nil
}

// uniqueNames lists the endpoints supporting -unique, sorted.
func uniqueNames(calls map[string]lgCall) []string {
	var out []string
	for name, c := range calls {
		if c.unique != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// benchStep is one rung of the concurrency ramp in BENCH_serve.json.
type benchStep struct {
	Concurrency   int     `json:"concurrency"`
	DurationS     float64 `json:"duration_s"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	// Server-side /metrics deltas over the step, reconciling the
	// client's view against the service's own telemetry.
	Server benchServer `json:"server"`
}

// benchServer is the step's /metrics delta.
type benchServer struct {
	Requests  float64 `json:"requests"`
	CacheHits float64 `json:"cache_hits"`
	Coalesced float64 `json:"coalesced"`
	Shed      float64 `json:"shed"`
	Deadlines float64 `json:"deadlines"`
}

// benchDoc is one loadgen run. It carries no wall-clock timestamp so
// re-runs on identical builds diff cleanly.
type benchDoc struct {
	Base      string      `json:"base"`
	Endpoints []string    `json:"endpoints"`
	Unique    bool        `json:"unique,omitempty"`
	Steps     []benchStep `json:"steps"`
}

// cmdLoadgen drives a closed-loop stepped load ramp against a running
// service: begin → max workers in increments of step, each rung held
// for -duration, every worker issuing one request after another from
// the weighted endpoint mix. Client-side latency lands in a
// per-step histogram; server-side truth comes from /metrics deltas
// scraped around the rung. The trajectory is written as
// BENCH_serve.json — the serving-layer benchmark artifact.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	base := fs.String("base", "", "service base URL (required; e.g. http://127.0.0.1:8080)")
	endpoints := fs.String("endpoints", "evaluate",
		"weighted endpoint mix, comma-separated name[:weight] (healthz, devices, "+strings.Join(api.EndpointNames(), ", ")+")")
	begin := fs.Int("begin", 1, "first rung's concurrent workers")
	step := fs.Int("step", 0, "workers added per rung (default: begin)")
	maxC := fs.Int("max", 8, "last rung's concurrent workers")
	duration := fs.Duration("duration", 3*time.Second, "time to hold each rung")
	unique := fs.Bool("unique", false,
		"salt every request body so each is a result-cache miss (cold-path ramp; endpoints must support salting)")
	label := fs.String("label", "",
		"store the run under runs.<label> in the output document, preserving other labels (default: overwrite with a single-run document)")
	out := fs.String("o", "BENCH_serve.json", "output path ('-' for stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *base == "" {
		return usagef("loadgen: -base is required (start one with 'greenfpga serve')")
	}
	if *begin < 1 || *maxC < *begin {
		return usagef("loadgen: need 1 <= -begin <= -max, got begin=%d max=%d", *begin, *maxC)
	}
	if *step <= 0 {
		*step = *begin
	}
	mix, err := parseEndpointMix(*endpoints, lgCalls(), *unique)
	if err != nil {
		return usagef("loadgen: bad -endpoints: %v", err)
	}

	c := client.New(*base)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("loadgen: service at %s not healthy: %w", *base, err)
	}
	// Prime each endpoint once so the ramp measures the steady state
	// (result cache warm) instead of mixing one cold evaluation into
	// the first rung's tail.
	for _, ep := range mix {
		if err := ep.call(ctx, c); err != nil {
			return fmt.Errorf("loadgen: priming %s: %w", ep.name, err)
		}
	}

	doc := benchDoc{Base: *base, Unique: *unique}
	for _, ep := range mix {
		doc.Endpoints = append(doc.Endpoints, fmt.Sprintf("%s:%d", ep.name, ep.weight))
	}
	var salt atomic.Uint64
	fmt.Printf("%-12s %10s %12s %10s %10s %10s\n",
		"concurrency", "requests", "rps", "p50_ms", "p99_ms", "max_ms")
	for n := *begin; n <= *maxC; n += *step {
		st, err := runStep(ctx, c, mix, n, *duration, uniqueSalt(*unique, &salt))
		if err != nil {
			return err
		}
		doc.Steps = append(doc.Steps, st)
		fmt.Printf("%-12d %10d %12.1f %10.3f %10.3f %10.3f\n",
			n, st.Requests, st.ThroughputRPS, st.P50Ms, st.P99Ms, st.MaxMs)
	}

	buf, err := renderBench(doc, *label, *out)
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := writeFileAtomic(*out, buf); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d steps)\n", *out, len(doc.Steps))
	return nil
}

// uniqueSalt returns the per-request salt source, or nil for the
// fixed-body (cache-hit) ramp. The counter spans all rungs so a later
// rung can never replay an earlier rung's key.
func uniqueSalt(unique bool, salt *atomic.Uint64) func() uint64 {
	if !unique {
		return nil
	}
	return func() uint64 { return salt.Add(1) }
}

// renderBench marshals the output document: a plain single-run doc,
// or — under -label — the labeled-runs form {"runs": {label: doc}},
// merging with any labeled runs already in the output file so
// successive PRs' trajectories accumulate side by side.
func renderBench(doc benchDoc, label, path string) ([]byte, error) {
	var v any = doc
	if label != "" {
		runs := make(map[string]json.RawMessage)
		if path != "-" {
			if prev, err := os.ReadFile(path); err == nil {
				var existing struct {
					Runs map[string]json.RawMessage `json:"runs"`
				}
				if json.Unmarshal(prev, &existing) == nil && existing.Runs != nil {
					runs = existing.Runs
				}
			}
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		runs[label] = raw
		v = struct {
			Runs map[string]json.RawMessage `json:"runs"`
		}{runs}
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// writeFileAtomic replaces path via a temp file in the same directory
// plus rename. The -label path reads the previous document back and
// merges labeled runs into it, so an in-place truncate-and-write that
// dies (or races a reader) mid-write would destroy every earlier run;
// the rename publishes the merged document all-or-nothing.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		// CreateTemp's 0600 would make the artifact owner-only.
		werr = os.Chmod(tmp, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
	}
	return werr
}

// runStep holds one rung: n workers in a closed loop for d, latencies
// into a shared atomic histogram, /metrics scraped before and after.
// A non-nil salt switches every call to its salted variant, each
// request a fresh content address (the -unique cold-path ramp).
func runStep(ctx context.Context, c *client.Client, mix []lgEndpoint, n int, d time.Duration, salt func() uint64) (benchStep, error) {
	before, err := scrape(ctx, c)
	if err != nil {
		return benchStep{}, fmt.Errorf("loadgen: scraping /metrics: %w", err)
	}
	// Finer buckets than the server's (5/decade): quantiles here are
	// the artifact's headline numbers.
	hist := telemetry.NewHistogram(telemetry.LogBuckets(1e-6, 10, 5))
	var requests, errs atomic.Uint64
	stepCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	totalWeight := 0
	for _, ep := range mix {
		totalWeight += ep.weight
	}
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic weighted rotation, offset per worker so
			// workers do not move in lockstep through the mix.
			at := w
			for {
				if stepCtx.Err() != nil {
					return
				}
				pick := at % totalWeight
				at++
				var chosen lgEndpoint
				for _, ep := range mix {
					if pick < ep.weight {
						chosen = ep
						break
					}
					pick -= ep.weight
				}
				t0 := time.Now()
				var err error
				if salt != nil {
					err = chosen.unique(stepCtx, c, salt())
				} else {
					err = chosen.call(stepCtx, c)
				}
				if stepCtx.Err() != nil && err != nil {
					// The rung ended mid-request; a cut-off request is
					// neither a sample nor an error.
					return
				}
				hist.Observe(time.Since(t0).Seconds())
				requests.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := scrape(ctx, c)
	if err != nil {
		return benchStep{}, fmt.Errorf("loadgen: scraping /metrics: %w", err)
	}
	snap := hist.Snapshot()
	st := benchStep{
		Concurrency: n,
		DurationS:   round3(elapsed.Seconds()),
		Requests:    requests.Load(),
		Errors:      errs.Load(),
		P50Ms:       round3(snap.Quantile(0.5) * 1e3),
		P90Ms:       round3(snap.Quantile(0.9) * 1e3),
		P99Ms:       round3(snap.Quantile(0.99) * 1e3),
		MaxMs:       round3(snap.Max * 1e3),
		Server: benchServer{
			Requests:  delta(before, after, "greenfpga_requests_total"),
			CacheHits: delta(before, after, "greenfpga_result_cache_hits_total"),
			Coalesced: delta(before, after, "greenfpga_coalesced_total"),
			Shed:      delta(before, after, "greenfpga_shed_total"),
			Deadlines: delta(before, after, "greenfpga_deadline_exceeded_total"),
		},
	}
	if elapsed > 0 {
		st.ThroughputRPS = round3(float64(requests.Load()) / elapsed.Seconds())
	}
	return st, nil
}

// scrape fetches and strictly parses the service's /metrics page.
func scrape(ctx context.Context, c *client.Client) (*telemetry.Scrape, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(text)
}

// delta is the step-over-step difference of one summed metric.
func delta(before, after *telemetry.Scrape, name string) float64 {
	return after.Total(name) - before.Total(name)
}

// round3 keeps the artifact readable: 3 decimals everywhere.
func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}
