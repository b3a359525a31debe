// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact — see DESIGN.md's experiment
// index), the headline crossover solvers, the ablations, and the hot
// evaluation paths.
//
//	go test -bench=. -benchmem
package greenfpga_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"greenfpga"
	"greenfpga/api"

	"greenfpga/internal/core"
	"greenfpga/internal/experiments"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/server"
	"greenfpga/internal/sweep"
	"greenfpga/internal/units"
)

// benchExperiment runs one registered paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := out.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper tables.

func BenchmarkTable1Defaults(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2IsoPerf(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3Industry(b *testing.B) { benchExperiment(b, "table3") }

// Paper figures.

func BenchmarkFig2SingleVsTenApps(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig4NumApps(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5AppLifetime(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6AppVolume(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7Breakdown(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8Heatmaps(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9ChipLifetime(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10IndustryFPGA(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11IndustryASIC(b *testing.B)   { benchExperiment(b, "fig11") }

// Headline analyses and ablations.

func BenchmarkCrossoverScenarios(b *testing.B)  { benchExperiment(b, "scenarios") }
func BenchmarkDesignModelAblation(b *testing.B) { benchExperiment(b, "design-ablation") }
func BenchmarkYieldModelAblation(b *testing.B)  { benchExperiment(b, "yield-ablation") }
func BenchmarkRecyclingKnobsSweep(b *testing.B) { benchExperiment(b, "recycling-sweep") }
func BenchmarkEq2Sensitivity(b *testing.B)      { benchExperiment(b, "eq2-sensitivity") }

// Extensions beyond the paper.

func BenchmarkGPUExtension(b *testing.B)      { benchExperiment(b, "gpu-extension") }
func BenchmarkCarbonScheduling(b *testing.B)  { benchExperiment(b, "carbon-scheduling") }
func BenchmarkChipletAblation(b *testing.B)   { benchExperiment(b, "chiplet-ablation") }
func BenchmarkDesignSpaceSearch(b *testing.B) { benchExperiment(b, "dse") }
func BenchmarkFleetPlanner(b *testing.B)      { benchExperiment(b, "planner") }
func BenchmarkMultiFPGAGanging(b *testing.B)  { benchExperiment(b, "multi-fpga") }
func BenchmarkFabSiting(b *testing.B)         { benchExperiment(b, "fab-siting") }

// BenchmarkMonteCarlo runs the served Monte-Carlo configuration: the
// 500-draw Table 1 uncertainty study of the DNN FPGA:ASIC ratio at 5
// applications that /v1/mc runs by default, built by
// DomainRatioStudyConfig. The engine fans draws across CPUs.
func BenchmarkMonteCarlo(b *testing.B) {
	d, err := greenfpga.DomainByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := greenfpga.DomainRatioStudyConfig(ctx, d, greenfpga.FPGA, greenfpga.ASIC, 5, 500, int64(i)+1)
		if _, err := greenfpga.RunMonteCarlo(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloNApps runs the served 500-draw DNN FPGA:ASIC
// study at 1, 5, 100 and 1000 applications (1000 is the /v1/mc cap).
// A draw prices its applications as one run, so the per-study
// allocations do not grow with napps.
func BenchmarkMonteCarloNApps(b *testing.B) {
	d, err := greenfpga.DomainByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, napps := range []int{1, 5, 100, 1000} {
		b.Run(fmt.Sprint(napps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := greenfpga.DomainRatioStudyConfig(ctx, d, greenfpga.FPGA, greenfpga.ASIC, napps, 500, int64(i)+1)
				if _, err := greenfpga.RunMonteCarlo(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Hot-path micro-benchmarks.

// BenchmarkEvaluateFPGA measures one full FPGA scenario evaluation.
func BenchmarkEvaluateFPGA(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	s := core.Uniform("bench", 5, units.YearsOf(2), 1e6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(set[0], s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateASIC measures one full ASIC scenario evaluation.
func BenchmarkEvaluateASIC(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	s := core.Uniform("bench", 5, units.YearsOf(2), 1e6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(set[1], s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceCost measures the embodied-model evaluation alone.
func BenchmarkDeviceCost(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set[0].DeviceCost(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep2D measures a parallel 20x12 pairwise grid (the Fig. 8
// workload shape): the pair is compiled once and every cell probes the
// O(1) uniform path through the sweep worker pool.
func BenchmarkSweep2D(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	cs, err := set[:2].Compile()
	if err != nil {
		b.Fatal(err)
	}
	x := sweep.Axis{Name: "n", Values: sweep.IntRange(1, 20)}
	y := sweep.Axis{Name: "t", Values: sweep.Linspace(0.2, 2.5, 12)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sweep.Run2D(x, y, func(xv, yv float64, totals []units.Mass) (err error) {
			for k, c := range cs {
				if totals[k], err = c.UniformTotal(int(xv+0.5), units.YearsOf(yv), 1e6, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep2DUncompiled keeps the seed benchmark's shape — a full
// scenario build and evaluation per cell — to track the cost the
// compiled pipeline removes.
func BenchmarkSweep2DUncompiled(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	x := sweep.Axis{Name: "n", Values: sweep.IntRange(1, 20)}
	y := sweep.Axis{Name: "t", Values: sweep.Linspace(0.2, 2.5, 12)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sweep.Run2D(x, y, func(xv, yv float64, totals []units.Mass) error {
			s := core.Uniform("g", int(xv+0.5), units.YearsOf(yv), 1e6, 0)
			for k := range totals {
				a, err := core.Evaluate(set[k], s)
				if err != nil {
					return err
				}
				totals[k] = a.Total()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossoverSolvers measures the three §4.2 solvers together,
// each compiling the FPGA/ASIC pair afresh as a one-off query would.
func BenchmarkCrossoverSolvers(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	compile := func() (fpga, asic *core.Compiled) {
		fpga, err := core.Compile(set[0])
		if err != nil {
			b.Fatal(err)
		}
		asic, err = core.Compile(set[1])
		if err != nil {
			b.Fatal(err)
		}
		return fpga, asic
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpga, asic := compile()
		if _, _, err := core.CrossoverNumAppsBetween(fpga, asic, units.YearsOf(2), 1e6, 0, 20); err != nil {
			b.Fatal(err)
		}
		fpga, asic = compile()
		if _, _, err := core.CrossoverLifetimeBetween(fpga, asic, 5, 1e6, 0, units.YearsOf(0.2), units.YearsOf(2.5)); err != nil {
			b.Fatal(err)
		}
		fpga, asic = compile()
		if _, _, err := core.CrossoverVolumeBetween(fpga, asic, 5, units.YearsOf(2), 0, 1e3, 1e7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossoverSolversCompiled measures the same three solvers
// against a pre-compiled pair — the repeated-sweep setting where even
// the one-time compile is amortized away.
func BenchmarkCrossoverSolversCompiled(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	cs, err := set[:2].Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CrossoverNumAppsBetween(cs[0], cs[1], units.YearsOf(2), 1e6, 0, 20); err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.CrossoverLifetimeBetween(cs[0], cs[1], 5, 1e6, 0, units.YearsOf(0.2), units.YearsOf(2.5)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.CrossoverVolumeBetween(cs[0], cs[1], 5, units.YearsOf(2), 0, 1e3, 1e7); err != nil {
			b.Fatal(err)
		}
	}
}

// Compiled-pipeline micro-benchmarks.

// BenchmarkCompile measures the one-time platform compilation cost.
func BenchmarkCompile(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greenfpga.Compile(set[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledEvaluateFPGA measures a full scenario evaluation
// against a pre-compiled FPGA platform.
func BenchmarkCompiledEvaluateFPGA(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	c, err := greenfpga.Compile(set[0])
	if err != nil {
		b.Fatal(err)
	}
	s := core.Uniform("bench", 5, units.YearsOf(2), 1e6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateUniformFPGA measures the O(1) uniform-scenario path.
func BenchmarkEvaluateUniformFPGA(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	c, err := greenfpga.Compile(set[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateUniform(5, units.YearsOf(2), 1e6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareSet measures the N-way comparison path: one
// four-platform CompiledSet.CompareUniform (four O(1) evaluations plus
// the full pairwise ratio matrix) against the same four
// EvaluateUniform calls made one by one — the cost of the set's
// ratio matrix and winner over the bare evaluations.
func BenchmarkCompareSet(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	cs, err := set.Compile()
	if err != nil {
		b.Fatal(err)
	}
	if len(cs) != 4 {
		b.Fatalf("DNN set has %d platforms, want 4", len(cs))
	}
	b.Run("set4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cs.CompareUniform(5, units.YearsOf(2), 1e6, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairs2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cs {
				if _, err := c.EvaluateUniform(5, units.YearsOf(2), 1e6, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPlatformFrontier regenerates the four-way frontier
// experiment.
func BenchmarkPlatformFrontier(b *testing.B) { benchExperiment(b, "platform-frontier") }

// BenchmarkTimeline measures one four-platform timeline evaluation:
// a 12-deployment staggered schedule with a refresh cap through
// CompiledSet.CompareSchedule (the /v1/timeline compute path minus
// JSON).
func BenchmarkTimeline(b *testing.B) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		b.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		b.Fatal(err)
	}
	for i := range set {
		set[i].ChipLifetime = greenfpga.Years(8)
	}
	cs, err := set.Compile()
	if err != nil {
		b.Fatal(err)
	}
	sch := core.Staggered("bench", 12, units.YearsOf(0.5), units.YearsOf(2), 1e6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.CompareSchedule(sch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimelineStaggered regenerates the staggered-timeline
// experiment.
func BenchmarkTimelineStaggered(b *testing.B) { benchExperiment(b, "timeline-staggered") }

// Service benchmarks.

// BenchmarkServerEvaluate measures a full /v1/evaluate round trip
// over loopback HTTP. "cold" renames the scenario per iteration so
// every request is a fresh content address (result-cache miss,
// compiled-platform cache warm); "hit" repeats one request so it is
// served from the content-addressed result cache without evaluating.
func BenchmarkServerEvaluate(b *testing.B) {
	srv, err := server.New(server.Options{CacheEntries: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	url := hts.URL + "/v1/evaluate"
	hc := hts.Client()

	post := func(body []byte) error {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	body := func(name string) []byte {
		cfg := greenfpga.ExampleScenarioConfig()
		cfg.Name = name
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, &api.EvaluateRequest{Scenario: cfg}); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}

	// The name counter lives outside the sub-benchmark: testing.B
	// re-runs it with escalating b.N against the same server, and
	// restarting at bench-0 would turn the early iterations of later
	// runs into cache hits. Bodies are pre-built outside the timed
	// loop so cold-vs-hit measures only what the cache removes.
	cold := 0
	b.Run("cold", func(b *testing.B) {
		bodies := make([][]byte, b.N)
		for i := range bodies {
			cold++
			bodies[i] = body(fmt.Sprintf("bench-%d", cold))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := post(bodies[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		warm := body("bench-hit")
		if err := post(warm); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := post(warm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchEvaluate measures a 64-scenario batch through the
// pool fan-out (all items distinct, so every one evaluates).
func BenchmarkBatchEvaluate(b *testing.B) {
	srv, err := server.New(server.Options{CacheEntries: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	hc := hts.Client()

	// Bodies are pre-built outside the timed loop (names unique across
	// b.N escalations) so the number is the round trip, not client-side
	// request construction.
	const items = 64
	n := 0
	bodies := make([][]byte, b.N)
	for i := range bodies {
		var req api.BatchEvaluateRequest
		for j := 0; j < items; j++ {
			cfg := greenfpga.ExampleScenarioConfig()
			cfg.Name = fmt.Sprintf("batch-%d", n)
			n++
			req.Requests = append(req.Requests, api.EvaluateRequest{Scenario: cfg})
		}
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, &req); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(hts.URL+"/v1/evaluate/batch", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkResolveSpecs measures the unified request model's
// resolution layer: one four-spec platform set — a plain domain
// member, a kind spec with a chip-lifetime override, a catalog
// device, an inline config — resolved through the Evaluator's
// compiled-platform cache (warm: every spec after the first pass is a
// content-address lookup, the plain member a memoized set lookup).
func BenchmarkResolveSpecs(b *testing.B) {
	e := api.NewEvaluator(64)
	specs := []api.PlatformSpec{
		{Domain: "DNN", Kind: "fpga"},
		{Domain: "DNN", Kind: "asic", ChipLifetimeYears: 8},
		{Device: "IndustryFPGA1"},
		{Config: &api.PlatformConfig{Device: "IndustryASIC1", DutyCycle: 0.3}},
	}
	if _, err := e.ResolveSet(specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ResolveSet(specs); err != nil {
			b.Fatal(err)
		}
	}
}
