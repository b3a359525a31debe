package greenfpga_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"greenfpga"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/montecarlo"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	// The documented quick start must work end to end.
	d, err := greenfpga.DomainByName("DNN")
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	pair, err := greenfpga.CompileSet(set[:2])
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := pair.Compare(greenfpga.Uniform("apps", 6, greenfpga.Years(2), 1e6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratio(0, 1) >= 1 {
		t.Errorf("six DNN applications should favour the FPGA, ratio %g", cmp.Ratio(0, 1))
	}
}

func TestFacadeUnitsConstructors(t *testing.T) {
	if greenfpga.Tonnes(2).Kilograms() != 2000 {
		t.Error("Tonnes")
	}
	if greenfpga.GWh(1).KWh() != 1e6 {
		t.Error("GWh")
	}
	if greenfpga.Kilowatts(2).Watts() != 2000 {
		t.Error("Kilowatts")
	}
	if greenfpga.CM2(1).MM2() != 100 {
		t.Error("CM2")
	}
	if math.Abs(greenfpga.Months(18).Years()-1.5) > 1e-12 {
		t.Error("Months")
	}
	if greenfpga.GramsPerKWh(700).KgPerKWh() != 0.7 {
		t.Error("GramsPerKWh")
	}
}

func TestFacadeCatalogsAndNodes(t *testing.T) {
	if len(greenfpga.IndustryDevices()) != 6 {
		t.Error("industry catalog should have the four Table 3 devices plus the GPU and CPU extensions")
	}
	if len(greenfpga.Domains()) != 3 {
		t.Error("three Table 2 domains expected")
	}
	if _, err := greenfpga.DeviceByName("IndustryASIC2"); err != nil {
		t.Error(err)
	}
	if _, err := greenfpga.NodeByName("7nm"); err != nil {
		t.Error(err)
	}
	if _, err := greenfpga.GridByRegion("iceland"); err != nil {
		t.Error(err)
	}
	if _, err := greenfpga.GridByRegion("atlantis"); err == nil {
		t.Error("unknown region must error")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := greenfpga.Experiments()
	if len(ids) < 12 {
		t.Fatalf("experiment registry too small: %v", ids)
	}
	var buf bytes.Buffer
	if err := greenfpga.RenderExperiment("table2", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "7.42") {
		t.Errorf("table2 output missing the ImgProc ratio:\n%s", buf.String())
	}
	if err := greenfpga.RenderExperiment("fig99", &buf); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFacadeLifecycle(t *testing.T) {
	spec, err := greenfpga.DeviceByName("IndustryFPGA1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := greenfpga.Compile(greenfpga.Platform{
		Spec: spec, DutyCycle: 0.3, ChipLifetime: greenfpga.Years(15),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Cumulative(greenfpga.Schedule{Name: "life", Deployments: []greenfpga.Deployment{{
		App:    greenfpga.Application{Name: "life", Lifetime: greenfpga.Years(1), Volume: 1000},
		Repeat: 30,
	}}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() <= 0 || len(res.Curve) != 31 {
		t.Errorf("lifecycle: total %v, %d points", res.Total(), len(res.Curve))
	}
}

func TestFacadeMonteCarlo(t *testing.T) {
	res, err := greenfpga.RunMonteCarlo(greenfpga.MCConfig{
		Samples: 200,
		Seed:    5,
		Params: []greenfpga.MCParam{
			{Name: "x", Dist: greenfpga.UniformDist{Lo: 0, Hi: 2}},
		},
		Model: func(d []float64) (float64, error) { return d[0], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-1) > 0.15 {
		t.Errorf("mean %g", res.Mean)
	}
}

func TestFacadeWorkloadAndDSE(t *testing.T) {
	if len(greenfpga.Kernels()) < 9 {
		t.Error("kernel library too small")
	}
	k, err := greenfpga.KernelByName("aes256-gcm")
	if err != nil {
		t.Fatal(err)
	}
	app, err := greenfpga.AppFromKernel(k, 120, greenfpga.Years(1), 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if app.SizeGates <= 0 {
		t.Error("kernel application should carry a size")
	}
	s, err := greenfpga.KernelRoadmap(k, 120, 2, 3, greenfpga.Years(1), 1e4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := greenfpga.ExploreDesignSpace(greenfpga.DSEInputs{
		Apps:      s.Apps,
		DutyCycle: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 || res.Best().Total <= 0 {
		t.Errorf("dse result: %+v", res.Best())
	}
}

func TestFacadePlanner(t *testing.T) {
	d, err := greenfpga.DomainByName("Crypto")
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := greenfpga.OptimizePortfolio(greenfpga.PlannerInputs{
		FPGA: set[0],
		ASIC: set[1],
		Apps: []greenfpga.Application{
			{Name: "a", Lifetime: greenfpga.Years(1), Volume: 1e4},
			{Name: "b", Lifetime: greenfpga.Years(1), Volume: 1e4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total > plan.AllASIC || plan.Total > plan.AllFPGA {
		t.Errorf("plan %v worse than a baseline", plan.Total)
	}
	// Crypto parity silicon: both apps should share the fleet.
	if plan.FPGAApps() != 2 {
		t.Errorf("crypto portfolio should be all-FPGA, got %d", plan.FPGAApps())
	}
}

func TestFacadeScenarioConfig(t *testing.T) {
	ex := greenfpga.ExampleScenarioConfig()
	p, err := ex.FPGA.ToPlatform()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ex.ToScenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := greenfpga.Evaluate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() <= 0 {
		t.Error("example scenario should produce positive CFP")
	}
}

// TestDomainRatioStudyBetween pins the generalized uncertainty study:
// the (FPGA, ASIC) study run whole IS the same study run in draw
// ranges and finalized (the chunked path /v1/mc and its jobs take)
// sample for sample, a GPU-vs-FPGA study runs on the same calibration,
// and unknown kinds error instead of panicking.
func TestDomainRatioStudyBetween(t *testing.T) {
	d, err := greenfpga.DomainByName("DNN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := greenfpga.DomainRatioStudyConfig(context.Background(), d, greenfpga.FPGA, greenfpga.ASIC, 5, 80, 11)
	whole, err := greenfpga.RunMonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := montecarlo.RunRange(cfg, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := montecarlo.RunRange(cfg, 30, 80)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := montecarlo.Finalize(cfg, append(lo, hi...))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Samples) != len(chunked.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(whole.Samples), len(chunked.Samples))
	}
	for i := range whole.Samples {
		if whole.Samples[i] != chunked.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, whole.Samples[i], chunked.Samples[i])
		}
	}
	if whole.Mean != chunked.Mean || whole.StdDev != chunked.StdDev {
		t.Errorf("summary stats differ: %v/%v vs %v/%v",
			whole.Mean, whole.StdDev, chunked.Mean, chunked.StdDev)
	}

	gpu, err := greenfpga.RunMonteCarlo(greenfpga.DomainRatioStudyConfig(
		context.Background(), d, greenfpga.GPU, greenfpga.FPGA, 5, 80, 11))
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Mean <= 0 || len(gpu.Tornado) == 0 {
		t.Errorf("gpu study: %+v", gpu)
	}
	if _, err := greenfpga.RunMonteCarlo(greenfpga.DomainRatioStudyConfig(
		context.Background(), d, greenfpga.DeviceKind("npu"), greenfpga.ASIC, 5, 10, 1)); err == nil {
		t.Error("unknown kind must error")
	}
}

// TestDegenerateMonteCarlo pins the Monte-Carlo draw against the
// deterministic path. With every Param of a DomainRatioStudyConfig
// replaced by Fixed at its mean, every sample and every reported
// percentile must equal the kindA/kindB total ratio that Evaluate
// gives on the domain's set at those knobs, bit for bit: on every
// calibrated domain, whose members come from the process-wide compiled
// set, and on a modified one, whose members are prepared per study.
// Seeded random studies must report ordered percentiles.
func TestDegenerateMonteCarlo(t *testing.T) {
	ctx := context.Background()
	pairs := [][2]greenfpga.DeviceKind{
		{greenfpga.FPGA, greenfpga.ASIC},
		{greenfpga.GPU, greenfpga.FPGA},
		{greenfpga.CPU, greenfpga.ASIC},
	}
	domains := greenfpga.Domains()
	modified := domains[0]
	modified.PowerRatio *= 1.5
	for _, d := range append(domains, modified) {
		for _, kinds := range pairs {
			for _, napps := range []int{1, 5} {
				cfg := greenfpga.DomainRatioStudyConfig(ctx, d, kinds[0], kinds[1], napps, 500, 7)
				knob := map[string]float64{}
				for i, p := range cfg.Params {
					knob[p.Name] = p.Dist.Mean()
					cfg.Params[i].Dist = greenfpga.FixedDist(knob[p.Name])
				}
				want := deterministicRatio(t, d, kinds, napps, knob)
				res, err := greenfpga.RunMonteCarlo(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range res.Samples {
					if s != want {
						t.Fatalf("%s %v napps=%d: sample %d = %v, Evaluate ratio %v", d.Name, kinds, napps, i, s, want)
					}
				}
				for _, p := range []float64{5, 25, 50, 75, 95} {
					if got := res.Percentile(p); got != want {
						t.Errorf("%s %v napps=%d: P%g = %v, Evaluate ratio %v", d.Name, kinds, napps, p, got, want)
					}
				}
			}
		}
	}

	d, err := greenfpga.DomainByName("DNN")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		kinds := pairs[int(seed)%len(pairs)]
		res, err := greenfpga.RunMonteCarlo(greenfpga.DomainRatioStudyConfig(ctx, d, kinds[0], kinds[1], int(seed), 200, seed))
		if err != nil {
			t.Fatal(err)
		}
		ps := []float64{res.Percentile(5), res.Percentile(25), res.Percentile(50), res.Percentile(75), res.Percentile(95)}
		for i := 1; i < len(ps); i++ {
			if ps[i-1] > ps[i] {
				t.Errorf("seed %d %v: percentiles out of order: %v", seed, kinds, ps)
			}
		}
	}
}

// deterministicRatio is the kinds[0]/kinds[1] total-CFP ratio Evaluate
// gives on d's set with the study's knobs applied: the domain's duty
// cycle and staffing, both members' recycling fractions, the FPGA
// member's front- and back-end times, and napps applications of the
// knob lifetime at the reference volume.
func deterministicRatio(t *testing.T, d greenfpga.Domain, kinds [2]greenfpga.DeviceKind, napps int, knob map[string]float64) float64 {
	t.Helper()
	d.DutyCycle = knob["duty_cycle"]
	d.DesignEngineers = knob["design_staff"]
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	s := greenfpga.Uniform("mc", napps, greenfpga.Years(knob["app_lifetime_years"]), isoperf.ReferenceVolume, 0)
	var totals [2]float64
	for i, kind := range kinds {
		p, err := set.Member(kind)
		if err != nil {
			t.Fatal(err)
		}
		p.RecycledMaterialFraction = knob["recycled_fraction"]
		p.EOL.RecycleFraction = knob["eol_delta"]
		if kind == greenfpga.FPGA {
			ad := p.AppDevProfile()
			ad.FrontEnd = greenfpga.Months(knob["t_fe_months"])
			ad.BackEnd = greenfpga.Months(knob["t_be_months"])
			p.AppDev = &ad
		}
		a, err := greenfpga.Evaluate(p, s)
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = a.Total().Kilograms()
	}
	return totals[0] / totals[1]
}
