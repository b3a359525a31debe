package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"greenfpga/internal/config"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/isoperf"
)

// TestCanonicalKeyFieldOrder checks the content addressing: bodies
// that differ only in field order, whitespace or spelled-out defaults
// map to one key, bodies with different values do not.
func TestCanonicalKeyFieldOrder(t *testing.T) {
	decode := func(s string) CrossoverRequest {
		var r CrossoverRequest
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := decode(`{"domain":"DNN","napps":5}`)
	b := decode(`{  "napps": 5,   "domain": "DNN" }`)
	c := decode(`{}`)
	ka, err := CanonicalKey("/v1/crossover", a.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := CanonicalKey("/v1/crossover", b.Normalized())
	kc, _ := CanonicalKey("/v1/crossover", c.Normalized())
	if ka != kb {
		t.Errorf("field order changed the key: %s vs %s", ka, kb)
	}
	if ka != kc {
		t.Errorf("spelled-out defaults changed the key: %s vs %s", ka, kc)
	}
	d := decode(`{"domain":"Crypto"}`)
	kd, _ := CanonicalKey("/v1/crossover", d.Normalized())
	if kd == ka {
		t.Error("different domains share a key")
	}
	ke, _ := CanonicalKey("/v1/sweep", a.Normalized())
	if ke == ka {
		t.Error("different endpoints share a key")
	}
}

// TestEvaluateMatchesCore checks the shared compute path against a
// direct core.Evaluate of the same scenario.
func TestEvaluateMatchesCore(t *testing.T) {
	cfg := config.Example()
	resp, err := testEval.Evaluate(context.Background(), &EvaluateRequest{Scenario: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FPGA == nil || resp.ASIC == nil {
		t.Fatalf("example config must evaluate both sides: %+v", resp)
	}
	scen, err := cfg.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		pc   *PlatformConfig
		got  *PlatformResult
		name string
	}{{cfg.FPGA, resp.FPGA, "fpga"}, {cfg.ASIC, resp.ASIC, "asic"}} {
		p, err := side.pc.ToPlatform()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(p, scen)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := side.got.TotalKg, want.Total().Kilograms(); got != w {
			t.Errorf("%s total: api %v, core %v", side.name, got, w)
		}
		if got, w := side.got.Breakdown.OperationKg, want.Breakdown.Operation.Kilograms(); got != w {
			t.Errorf("%s operation: api %v, core %v", side.name, got, w)
		}
		if side.got.DevicesManufactured != want.DevicesManufactured {
			t.Errorf("%s devices: api %v, core %v", side.name,
				side.got.DevicesManufactured, want.DevicesManufactured)
		}
	}
	if resp.Ratio == nil {
		t.Fatal("two-sided evaluation must carry a ratio")
	}
	want := resp.FPGA.TotalKg / resp.ASIC.TotalKg
	if *resp.Ratio != want {
		t.Errorf("ratio %v, want %v", *resp.Ratio, want)
	}
	if resp.Verdict != "fpga" && resp.Verdict != "asic" {
		t.Errorf("verdict %q", resp.Verdict)
	}
}

// TestEvaluatorCompiledCache checks that repeated evaluations of the
// same platform reuse one compilation.
func TestEvaluatorCompiledCache(t *testing.T) {
	e := NewEvaluator(8)
	req := &EvaluateRequest{Scenario: config.Example()}
	if _, err := e.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	hits, misses := e.CompileStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("cold evaluate: hits %d misses %d, want 0/2", hits, misses)
	}
	if _, err := e.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	hits, misses = e.CompileStats()
	if hits != 2 || misses != 2 {
		t.Fatalf("warm evaluate: hits %d misses %d, want 2/2", hits, misses)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := testEval.Evaluate(context.Background(), nil); err == nil {
		t.Error("nil request must error")
	}
	if _, err := testEval.Evaluate(context.Background(), &EvaluateRequest{}); err == nil {
		t.Error("missing scenario must error")
	}
	cfg := config.Example()
	cfg.FPGA = &PlatformConfig{Device: "nope", DutyCycle: 0.3}
	if _, err := testEval.Evaluate(context.Background(), &EvaluateRequest{Scenario: cfg}); err == nil {
		t.Error("unknown device must error")
	}
}

// TestRunCrossoverMatchesCLI pins the DNN crossovers the CLI test
// asserts ("A2F at N_app = 6", "F2A at T_i = 1.59").
func TestRunCrossoverMatchesCLI(t *testing.T) {
	resp, err := testEval.RunCrossover(context.Background(), CrossoverRequest{Domain: "DNN"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.A2FNumApps.Found || resp.A2FNumApps.Value != 6 {
		t.Errorf("DNN A2F: %+v, want 6", resp.A2FNumApps)
	}
	if !resp.F2ALifetimeYears.Found || math.Abs(resp.F2ALifetimeYears.Value-1.59) > 0.01 {
		t.Errorf("DNN F2A lifetime: %+v, want ~1.59", resp.F2ALifetimeYears)
	}
	if _, err := testEval.RunCrossover(context.Background(), CrossoverRequest{Domain: "Quantum"}); err == nil {
		t.Error("unknown domain must error")
	}
}

func TestRunSweep(t *testing.T) {
	resp, err := testEval.RunSweep(context.Background(), SweepRequest{Domain: "DNN", Axis: "napps"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 12 {
		t.Fatalf("default napps sweep has %d points, want 12", len(resp.Points))
	}
	if resp.Points[0].X != 1 || resp.Points[11].X != 12 {
		t.Errorf("axis range %v..%v, want 1..12", resp.Points[0].X, resp.Points[11].X)
	}
	// The DNN A2F crossover at 6 applications must show in the ratio.
	if resp.Points[4].Ratio <= 1 {
		t.Errorf("ratio at N=5 is %v, want > 1 (ASIC wins before crossover)", resp.Points[4].Ratio)
	}
	if resp.Points[5].Ratio >= 1 {
		t.Errorf("ratio at N=6 is %v, want < 1 (FPGA wins from crossover)", resp.Points[5].Ratio)
	}
	if _, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "frequency"}); err == nil {
		t.Error("unknown axis must error")
	}
}

// TestRunCaps checks the resource bounds on one request.
func TestRunCaps(t *testing.T) {
	if _, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "lifetime", Points: MaxSweepPoints + 1}); err == nil {
		t.Error("oversized point count must error")
	}
	if _, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "napps", From: 1, To: 1e12}); err == nil {
		t.Error("huge napps range must error")
	}
	if _, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{Samples: MaxMonteCarloSamples + 1}); err == nil {
		t.Error("oversized sample count must error")
	}
}

func TestRunMonteCarloDeterministic(t *testing.T) {
	req := MonteCarloRequest{Domain: "DNN", Samples: 200, Seed: 7}
	a, err := testEval.RunMonteCarlo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEval.RunMonteCarlo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := WriteJSON(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Error("same seed produced different MC responses")
	}
	if a.ProbFPGAWins < 0 || a.ProbFPGAWins > 1 {
		t.Errorf("ProbFPGAWins %v out of [0,1]", a.ProbFPGAWins)
	}
	if len(a.Tornado) == 0 {
		t.Error("tornado ranking empty")
	}
}

// TestMonteCarloDrawAllocs bounds the heap allocations of one served
// Monte-Carlo draw (/v1/mc's DNN FPGA:ASIC study): the marginal count
// of a 1000-draw study over a 500-draw one, so the per-study constant
// (member preparation, tornado, percentiles, worker start-up) cancels.
// The study prepares both members once; a draw reads its parameters
// from a reused slice, derives only the terms its knobs move on the
// stack and evaluates totals only, so neither the draw count nor the
// application count (the 100-application case) may move the per-draw
// figure; a regression that heap-allocates per draw or per application
// shows up here as a step change.
func TestMonteCarloDrawAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, napps := range []int{5, 100} {
		mallocs := func(samples int) float64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := testEval.RunMonteCarlo(context.Background(),
				MonteCarloRequest{Domain: "DNN", Samples: samples, Seed: 11, NApps: napps}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs - m0.Mallocs)
		}
		mallocs(500) // warm the compiled and preset caches
		var perDraw []float64
		for k := 0; k < 3; k++ {
			perDraw = append(perDraw, (mallocs(1000)-mallocs(500))/500)
		}
		sort.Float64s(perDraw)
		const budget = 4
		if perDraw[1] > budget {
			t.Errorf("napps=%d: mc draw allocates %.1f objects (median of %v), budget %d", napps, perDraw[1], perDraw, budget)
		}
		t.Logf("napps=%d: mc draw: %.1f allocs (budget %d)", napps, perDraw[1], budget)
	}
}

// TestMonteCarloStudyAllocs bounds the heap allocations of one whole
// warm 500-draw /v1/mc study (DNN FPGA:ASIC) at 5 and at 1000
// applications under one budget: planning, the configuration built
// once for the draws and the assembly, the draws, the tornado and the
// response. A draw's applications are one run whatever napps is, so
// the count does not grow with napps. A calibrated domain's members
// come prepared from the process-wide compiled set, so the
// configuration neither copies a set nor prepares a platform; doing so
// again costs about ten allocations per study, more than the headroom
// here. The budget is 47 measured allocations plus 4.
func TestMonteCarloStudyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const budget = 51
	for _, napps := range []int{5, 1000} {
		req := MonteCarloRequest{Domain: "DNN", Samples: 500, Seed: 11, Workload: &WorkloadSpec{NApps: napps}}
		run := func() {
			if _, err := testEval.RunMonteCarlo(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the compiled set and preset caches
		allocs := testing.AllocsPerRun(20, run)
		if allocs > budget {
			t.Errorf("napps=%d: a 500-draw mc study allocates %.0f objects, budget %d", napps, allocs, budget)
		}
		t.Logf("napps=%d: 500-draw mc study: %.0f allocs (budget %d)", napps, allocs, budget)
	}
}

// TestRunCompareDefaults checks the four-way default comparison: full
// DNN set, §4.2 reference scenario, 12-point frontier, with the
// pairwise ratios consistent with the per-platform totals.
func TestRunCompareDefaults(t *testing.T) {
	resp, err := testEval.RunCompare(context.Background(), CompareRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Domain != "DNN" || resp.NApps != 5 || resp.LifetimeYears != 2 || resp.Volume != 1e6 {
		t.Fatalf("normalized defaults: %+v", resp)
	}
	if len(resp.Platforms) != 4 {
		t.Fatalf("full DNN set has %d platforms, want 4", len(resp.Platforms))
	}
	kinds := map[string]bool{}
	byName := map[string]float64{}
	for _, p := range resp.Platforms {
		kinds[p.Kind] = true
		byName[p.Platform] = p.TotalKg
	}
	for _, k := range []string{"fpga", "asic", "gpu", "cpu"} {
		if !kinds[k] {
			t.Errorf("missing platform kind %q", k)
		}
	}
	if len(resp.Ratios) != 6 {
		t.Fatalf("4 platforms need 6 pairwise ratios, got %d", len(resp.Ratios))
	}
	for _, r := range resp.Ratios {
		want := byName[r.A] / byName[r.B]
		if r.Ratio != want {
			t.Errorf("ratio %s:%s = %g, want %g", r.A, r.B, r.Ratio, want)
		}
	}
	min := resp.Platforms[0]
	for _, p := range resp.Platforms {
		if p.TotalKg < min.TotalKg {
			min = p
		}
	}
	if resp.Winner != min.Platform {
		t.Errorf("winner %q, minimum total is %q", resp.Winner, min.Platform)
	}
	if len(resp.Frontier) != 12 {
		t.Fatalf("frontier has %d points, want 12", len(resp.Frontier))
	}
	// The §4.2 story: ASIC wins one-shot, FPGA from its paper
	// crossover at 6 applications.
	if resp.Frontier[0].Winner != "DNN-ASIC" || resp.Frontier[11].Winner != "DNN-FPGA" {
		t.Errorf("frontier endpoints: %+v", resp.Frontier)
	}
}

// TestRunCompareSelectors checks platform subsetting and its error
// paths.
func TestRunCompareSelectors(t *testing.T) {
	resp, err := testEval.RunCompare(context.Background(), CompareRequest{Platforms: KindSpecs("gpu", "asic"), NApps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) != 2 || resp.Platforms[0].Kind != "gpu" || resp.Platforms[1].Kind != "asic" {
		t.Fatalf("selected platforms: %+v", resp.Platforms)
	}
	if len(resp.Ratios) != 1 || resp.Ratios[0].A != "DNN-GPU" || resp.Ratios[0].B != "DNN-ASIC" {
		t.Fatalf("selected ratios: %+v", resp.Ratios)
	}
	for _, bad := range []CompareRequest{
		{Platforms: KindSpecs("fpga")},
		{Platforms: KindSpecs("fpga", "fpga")},
		{Platforms: KindSpecs("fpga", "npu")},
		{Domain: "Quantum"},
		{NApps: -1},
		{MaxApps: -5},
		{MaxApps: MaxCompareApps + 1},
	} {
		if _, err := testEval.RunCompare(context.Background(), bad); err == nil {
			t.Errorf("request %+v must error", bad)
		}
	}
}

// TestRunCrossoverSelectors checks that the generalized solvers
// reproduce the gpu-extension story and reject bad selectors.
func TestRunCrossoverSelectors(t *testing.T) {
	// FPGA overtakes the GPU from 3 applications (the gpu-extension
	// experiment's headline).
	resp, err := testEval.RunCrossover(context.Background(), CrossoverRequest{PlatformA: "fpga", PlatformB: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PlatformA != "fpga" || resp.PlatformB != "gpu" {
		t.Errorf("selector echo: %+v", resp)
	}
	if !resp.A2FNumApps.Found || resp.A2FNumApps.Value != 3 {
		t.Errorf("FPGA-over-GPU crossover: %+v, want 3", resp.A2FNumApps)
	}
	// Default requests keep the legacy shape: no selector echoes.
	legacy, err := testEval.RunCrossover(context.Background(), CrossoverRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.PlatformA != "" || legacy.PlatformB != "" {
		t.Errorf("legacy response must omit selectors: %+v", legacy)
	}
	for _, bad := range []CrossoverRequest{
		{PlatformA: "fpga"},
		{PlatformA: "fpga", PlatformB: "fpga"},
		{PlatformA: "fpga", PlatformB: "npu"},
	} {
		if _, err := testEval.RunCrossover(context.Background(), bad); err == nil {
			t.Errorf("request %+v must error", bad)
		}
	}
}

// TestTimelineNormalization checks the generator-shorthand expansion:
// an empty body and its spelled-out equivalent are one cache entry,
// normalization is idempotent, and explicit deployments win over (and
// clear) the generator fields.
func TestTimelineNormalization(t *testing.T) {
	norm := TimelineRequest{}.Normalized()
	if norm.Domain != "DNN" || norm.Workload == nil {
		t.Fatalf("defaults: %+v", norm)
	}
	w := norm.Workload
	if w.Sizing != "shared" || len(w.Deployments) != 5 {
		t.Fatalf("workload defaults: %+v", w)
	}
	if norm.NApps != 0 || norm.IntervalYears != 0 || norm.LifetimeYears != 0 || norm.Volume != 0 ||
		norm.Sizing != "" || len(norm.Deployments) != 0 {
		t.Errorf("legacy fields must fold into the workload: %+v", norm)
	}
	if w.NApps != 0 || w.IntervalYears != 0 || w.LifetimeYears != 0 || w.Volume != 0 {
		t.Errorf("generator fields must clear after expansion: %+v", w)
	}
	if len(norm.Platforms) != 4 || !norm.Platforms[0].isPlainKind("DNN", "fpga") {
		t.Errorf("empty platform list must expand to the domain set: %+v", norm.Platforms)
	}
	for i, d := range w.Deployments {
		want := TimelineDeployment{
			Name: fmt.Sprintf("app%d", i+1), StartYears: float64(i) * 0.5,
			LifetimeYears: 2, Volume: 1e6,
		}
		if d != want {
			t.Errorf("deployment %d: %+v, want %+v", i, d, want)
		}
	}
	// Idempotence, and shorthand vs spelled-out equivalence under the
	// canonical key — across the legacy-explicit and spec-form
	// spellings.
	again := norm.Normalized()
	k1, err := CanonicalKey("/v1/timeline", norm)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := CanonicalKey("/v1/timeline", again)
	explicit := TimelineRequest{Domain: "DNN", Deployments: append([]TimelineDeployment(nil), w.Deployments...)}
	k3, _ := CanonicalKey("/v1/timeline", explicit.Normalized())
	spec := TimelineRequest{
		Platforms: []PlatformSpec{
			{Domain: "DNN", Kind: "fpga"}, {Domain: "DNN", Kind: "asic"},
			{Domain: "DNN", Kind: "gpu"}, {Domain: "DNN", Kind: "cpu"},
		},
		Workload: &WorkloadSpec{Deployments: append([]TimelineDeployment(nil), w.Deployments...)},
	}
	k4, _ := CanonicalKey("/v1/timeline", spec.Normalized())
	if k1 != k2 || k1 != k3 || k1 != k4 {
		t.Errorf("equivalent timeline requests disagree on keys: %s / %s / %s / %s", k1, k2, k3, k4)
	}
	// Explicit deployments silence the generator.
	mixed := TimelineRequest{
		NApps: 9, IntervalYears: 3,
		Deployments: []TimelineDeployment{{LifetimeYears: 1, Volume: 10}},
	}.Normalized()
	mw := mixed.Workload
	if mw == nil || len(mw.Deployments) != 1 || mw.NApps != 0 || mw.Deployments[0].Name != "app1" {
		t.Errorf("explicit deployments must win over the generator: %+v", mw)
	}
	// A request-level chip-lifetime cap distributes onto the platform
	// specs (specs carrying their own keep it).
	capped := TimelineRequest{
		ChipLifetimeYears: 8,
		Platforms: []PlatformSpec{
			{Kind: "fpga"}, {Kind: "asic", ChipLifetimeYears: 3},
		},
	}.Normalized()
	if capped.ChipLifetimeYears != 0 ||
		capped.Platforms[0].ChipLifetimeYears != 8 || capped.Platforms[1].ChipLifetimeYears != 3 {
		t.Errorf("chip lifetime must distribute onto specs: %+v", capped.Platforms)
	}
}

// TestRunTimelineDefaults checks the default staggered timeline: with
// uncapped hardware the span changes nothing, so every platform's
// timeline total equals its sequential contrast, and the ratios and
// winner stay consistent with the totals.
func TestRunTimelineDefaults(t *testing.T) {
	resp, err := testEval.RunTimeline(context.Background(), TimelineRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Domain != "DNN" || resp.Sizing != "shared" || len(resp.Platforms) != 4 {
		t.Fatalf("defaults: %+v", resp)
	}
	if resp.SpanYears != 4 || resp.SequentialSpanYears != 10 || resp.PeakConcurrent != 4 {
		t.Fatalf("timeline shape: span %g seq %g peak %d, want 4/10/4",
			resp.SpanYears, resp.SequentialSpanYears, resp.PeakConcurrent)
	}
	if len(resp.Deployments) != 5 || resp.Deployments[4].StartYears != 2 {
		t.Fatalf("echoed deployments: %+v", resp.Deployments)
	}
	byName := map[string]float64{}
	for _, p := range resp.Platforms {
		byName[p.Platform] = p.TotalKg
		if p.TotalKg != p.SequentialTotalKg {
			t.Errorf("%s: uncapped timeline total %g differs from sequential %g",
				p.Platform, p.TotalKg, p.SequentialTotalKg)
		}
		if p.HardwareGenerations != 1 {
			t.Errorf("%s: uncapped platform has %d generations", p.Platform, p.HardwareGenerations)
		}
		if p.Kind == "asic" {
			if p.PeakDemandDevices != 4e6 {
				t.Errorf("ASIC peak demand %g, want 4e6 (four resident 1e6 deployments)", p.PeakDemandDevices)
			}
		}
	}
	if len(resp.Ratios) != 6 {
		t.Fatalf("4 platforms need 6 ratios, got %d", len(resp.Ratios))
	}
	for _, r := range resp.Ratios {
		if want := byName[r.A] / byName[r.B]; r.Ratio != want {
			t.Errorf("ratio %s:%s = %g, want %g", r.A, r.B, r.Ratio, want)
		}
	}
	min := resp.Platforms[0]
	for _, p := range resp.Platforms {
		if p.TotalKg < min.TotalKg {
			min = p
		}
	}
	if resp.Winner != min.Platform {
		t.Errorf("winner %q, minimum total is %q", resp.Winner, min.Platform)
	}
}

// TestRunTimelineRefreshCap checks the headline timeline effect: under
// a refresh cap, staggered arrivals compress the wall-clock span below
// one chip lifetime while the sequential contrast pays a fleet
// rebuild.
func TestRunTimelineRefreshCap(t *testing.T) {
	resp, err := testEval.RunTimeline(context.Background(), TimelineRequest{ChipLifetimeYears: 8, Platforms: KindSpecs("fpga", "asic")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) != 2 {
		t.Fatalf("platform subset: %+v", resp.Platforms)
	}
	fpga, asic := resp.Platforms[0], resp.Platforms[1]
	if fpga.Kind != "fpga" || asic.Kind != "asic" {
		t.Fatalf("subset order: %+v", resp.Platforms)
	}
	if fpga.HardwareGenerations != 1 {
		t.Errorf("staggered FPGA generations %d, want 1 (span 4y < 8y cap)", fpga.HardwareGenerations)
	}
	if fpga.SequentialTotalKg <= fpga.TotalKg {
		t.Errorf("sequential accounting must cost more under the cap: %g vs %g",
			fpga.SequentialTotalKg, fpga.TotalKg)
	}
	if asic.SequentialTotalKg != asic.TotalKg {
		t.Errorf("ASIC totals must be schedule-independent: %g vs %g",
			asic.SequentialTotalKg, asic.TotalKg)
	}
	// Dedicated sizing must cost a reusable platform more than shared.
	ded, err := testEval.RunTimeline(context.Background(), TimelineRequest{Sizing: "dedicated", Platforms: KindSpecs("fpga", "asic")})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := testEval.RunTimeline(context.Background(), TimelineRequest{Platforms: KindSpecs("fpga", "asic")})
	if err != nil {
		t.Fatal(err)
	}
	if ded.Platforms[0].TotalKg <= shared.Platforms[0].TotalKg {
		t.Errorf("dedicated FPGA %g must exceed shared %g",
			ded.Platforms[0].TotalKg, shared.Platforms[0].TotalKg)
	}
	if ded.Platforms[0].FleetSize != ded.Platforms[0].PeakDemandDevices {
		t.Errorf("dedicated fleet %g must equal peak demand %g",
			ded.Platforms[0].FleetSize, ded.Platforms[0].PeakDemandDevices)
	}
}

// TestRunTimelineValidation exercises the request error paths,
// including the generator bounds: a huge napps must be rejected
// without materializing the timeline (normalization clamps the
// expansion to one entry past the limit), and a negative napps errors
// like /v1/compare instead of silently serving the default.
func TestRunTimelineValidation(t *testing.T) {
	for _, bad := range []TimelineRequest{
		{Domain: "Quantum"},
		{Sizing: "elastic"},
		{ChipLifetimeYears: -1},
		{NApps: -1},
		{NApps: 2_000_000_000},
		{NApps: MaxTimelineDeployments + 1},
		{Platforms: KindSpecs("fpga")},
		{Platforms: KindSpecs("fpga", "fpga")},
		{Platforms: KindSpecs("fpga", "npu")},
		{Deployments: []TimelineDeployment{{LifetimeYears: 1, Volume: -2}}},
		{Deployments: []TimelineDeployment{{StartYears: -1, LifetimeYears: 1, Volume: 1}}},
	} {
		if _, err := testEval.RunTimeline(context.Background(), bad); err == nil {
			t.Errorf("request %+v must error", bad)
		}
	}
	if norm := (TimelineRequest{NApps: 2_000_000_000}).Normalized(); len(norm.Workload.Deployments) != MaxTimelineDeployments+1 {
		t.Errorf("oversized generator expanded %d deployments, want the clamp at %d",
			len(norm.Workload.Deployments), MaxTimelineDeployments+1)
	}
	if norm := (TimelineRequest{NApps: -4}).Normalized(); len(norm.Workload.Deployments) != 0 || norm.Workload.NApps != -4 {
		t.Errorf("negative napps must be preserved un-expanded: %+v", norm.Workload)
	}
}

func TestCatalogs(t *testing.T) {
	dl := Devices()
	if len(dl.Devices) != len(device.Catalog()) {
		t.Errorf("device list has %d entries, catalog %d", len(dl.Devices), len(device.Catalog()))
	}
	for _, d := range dl.Devices {
		if d.Name == "" || d.Kind == "" || d.Node == "" {
			t.Errorf("incomplete device %+v", d)
		}
	}
	dm := Domains()
	if len(dm.Domains) != len(isoperf.Domains()) {
		t.Errorf("domain list has %d entries, want %d", len(dm.Domains), len(isoperf.Domains()))
	}
	el := Experiments()
	if len(el.Experiments) == 0 || el.Experiments[0] != "table1" {
		t.Errorf("experiment list %v", el.Experiments)
	}
}

func TestExperimentJSON(t *testing.T) {
	res, err := Experiment("table3")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "table3" || len(res.Tables) == 0 {
		t.Fatalf("table3 artifact: %+v", res)
	}
	found := false
	for _, row := range res.Tables[0].Rows {
		if strings.Contains(strings.Join(row, ","), "IndustryFPGA1") {
			found = true
		}
	}
	if !found {
		t.Error("table3 rows missing IndustryFPGA1")
	}
	if _, err := Experiment("fig99"); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestWriteJSONShape pins the canonical encoding: compact, one
// trailing newline, HTML escaping off.
func TestWriteJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, map[string]string{"a": "<b>"}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\"a\":\"<b>\"}\n"; got != want {
		t.Errorf("WriteJSON = %q, want %q", got, want)
	}
}
