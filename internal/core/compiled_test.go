package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"greenfpga/internal/carbon"
	"greenfpga/internal/device"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
)

// evaluateReference is a frozen copy of the pre-compiled-pipeline
// Evaluate, kept verbatim so the equivalence property below compares
// the compiled paths against a genuinely independent implementation
// rather than against themselves.
func evaluateReference(p Platform, s Scenario) (Assessment, error) {
	if err := p.Validate(); err != nil {
		return Assessment{}, err
	}
	if err := s.Validate(); err != nil {
		return Assessment{}, err
	}

	dc, err := p.DeviceCost()
	if err != nil {
		return Assessment{}, err
	}
	des, err := p.DesignCFP()
	if err != nil {
		return Assessment{}, err
	}
	opAnnual, err := p.operation().AnnualCarbon()
	if err != nil {
		return Assessment{}, err
	}
	ad := p.appDev()
	perApp, err := ad.PerApplication()
	if err != nil {
		return Assessment{}, err
	}
	perCfg, err := ad.PerConfiguration()
	if err != nil {
		return Assessment{}, err
	}

	out := Assessment{
		Platform:            p.Spec.Name,
		Kind:                p.Spec.Kind,
		HardwareGenerations: 1,
	}
	addHardware := func(b *Breakdown, devices float64) {
		b.Manufacturing += dc.Manufacturing.Total().Scale(devices)
		b.Packaging += dc.Packaging.Total().Scale(devices)
		b.EOL += dc.EOL.Net().Scale(devices)
	}

	if p.Spec.Kind == device.ASIC {
		for _, app := range s.Apps {
			n, err := p.Spec.Required(app.SizeGates)
			if err != nil {
				return Assessment{}, err
			}
			devices := app.Volume * float64(n)
			gens := 1
			if p.ChipLifetime > 0 && app.Lifetime > p.ChipLifetime {
				gens = int(math.Ceil(app.Lifetime.Years() / p.ChipLifetime.Years()))
			}
			var b Breakdown
			b.Design = des
			addHardware(&b, devices*float64(gens))
			b.Operation = opAnnual.Scale(devices * app.Lifetime.Years() * app.utilization())
			appDevCost := perApp
			cfgCost := perCfg.Scale(devices)
			if s.StrictEq2 {
				appDevCost = appDevCost.Scale(app.Lifetime.Years())
				cfgCost = cfgCost.Scale(app.Lifetime.Years())
			}
			b.AppDevelopment = appDevCost
			b.Configuration = cfgCost
			out.PerApp = append(out.PerApp, AppAssessment{
				Name: app.Name, DevicesPerUnit: n, Breakdown: b,
			})
			out.Breakdown = out.Breakdown.Add(b)
			out.DevicesManufactured += devices * float64(gens)
			out.FleetSize = math.Max(out.FleetSize, devices)
		}
		return out, nil
	}

	var fleet float64
	for _, app := range s.Apps {
		n, err := p.Spec.Required(app.SizeGates)
		if err != nil {
			return Assessment{}, err
		}
		fleet = math.Max(fleet, app.Volume*float64(n))
	}
	gens := 1
	if p.ChipLifetime > 0 {
		total := s.TotalYears().Years()
		if total > p.ChipLifetime.Years() {
			gens = int(math.Ceil(total / p.ChipLifetime.Years()))
		}
	}
	out.FleetSize = fleet
	out.HardwareGenerations = gens
	out.DevicesManufactured = fleet * float64(gens)
	out.Breakdown.Design = des
	addHardware(&out.Breakdown, fleet*float64(gens))

	for _, app := range s.Apps {
		n, _ := p.Spec.Required(app.SizeGates)
		devices := app.Volume * float64(n)
		var b Breakdown
		b.Operation = opAnnual.Scale(devices * app.Lifetime.Years() * app.utilization())
		appDevCost := perApp
		cfgCost := perCfg.Scale(devices)
		if s.StrictEq2 {
			appDevCost = appDevCost.Scale(app.Lifetime.Years())
			cfgCost = cfgCost.Scale(app.Lifetime.Years())
		}
		b.AppDevelopment = appDevCost
		b.Configuration = cfgCost
		out.PerApp = append(out.PerApp, AppAssessment{
			Name: app.Name, DevicesPerUnit: n, Breakdown: b,
		})
		out.Breakdown = out.Breakdown.Add(b)
	}
	return out, nil
}

// randomPlatform draws a valid platform with randomized die, power,
// deployment and lifetime knobs.
func randomPlatform(t *testing.T, r *rand.Rand, kind device.Kind) Platform {
	t.Helper()
	nodes := []string{"28nm", "10nm", "7nm"}
	node, err := technode.ByName(nodes[r.Intn(len(nodes))])
	if err != nil {
		t.Fatal(err)
	}
	p := Platform{
		Spec: device.Spec{
			Name:      "rand-" + string(kind),
			Kind:      kind,
			Node:      node,
			DieArea:   units.MM2(20 + r.Float64()*400),
			PeakPower: units.Watts(0.5 + r.Float64()*50),
		},
		DutyCycle: 0.05 + r.Float64()*0.9,
	}
	if kind == device.FPGA {
		p.Spec.CapacityGates = 1e6 + r.Float64()*1e8
	}
	if r.Intn(2) == 0 {
		p.PUE = 1 + r.Float64()
	}
	if r.Intn(3) == 0 {
		p.YieldOverride = 0.2 + r.Float64()*0.8
	}
	if r.Intn(3) == 0 {
		p.ChipLifetime = units.YearsOf(1 + r.Float64()*10)
	}
	if r.Intn(2) == 0 {
		p.DesignEngineers = 50 + r.Float64()*500
		p.DesignDuration = units.YearsOf(0.5 + r.Float64()*3)
	}
	return p
}

// randomScenario draws a non-uniform scenario with 1-6 applications.
func randomScenario(r *rand.Rand) Scenario {
	s := Scenario{Name: "rand", StrictEq2: r.Intn(4) == 0}
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		app := Application{
			Name:     "app",
			Lifetime: units.YearsOf(0.2 + r.Float64()*5),
			Volume:   1 + r.Float64()*1e6,
		}
		if r.Intn(2) == 0 {
			app.SizeGates = r.Float64() * 2e8
		}
		if r.Intn(3) == 0 {
			app.UtilizationScale = 0.1 + r.Float64()*0.9
		}
		s.Apps = append(s.Apps, app)
	}
	return s
}

// TestQuickCompiledMatchesReference asserts that Evaluate and
// Compiled.Evaluate reproduce the frozen reference implementation
// bit-for-bit across randomized platforms and scenarios.
func TestQuickCompiledMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		kind := device.ASIC
		if i%2 == 0 {
			kind = device.FPGA
		}
		p := randomPlatform(t, r, kind)
		s := randomScenario(r)

		want, err := evaluateReference(p, s)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", i, err)
		}
		got, err := Evaluate(p, s)
		if err != nil {
			t.Fatalf("iter %d: Evaluate: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Evaluate diverges from reference:\ngot  %+v\nwant %+v", i, got, want)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("iter %d: Compile: %v", i, err)
		}
		got, err = c.Evaluate(s)
		if err != nil {
			t.Fatalf("iter %d: Compiled.Evaluate: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Compiled.Evaluate diverges from reference:\ngot  %+v\nwant %+v", i, got, want)
		}
		checkTotalsMatch(t, p, s, want)
	}
}

// checkTotalsMatch asserts that EvaluateTotals reproduces want — an
// Evaluate result for (p, s) — bit for bit with PerApp left nil.
func checkTotalsMatch(t *testing.T, p Platform, s Scenario, want Assessment) {
	t.Helper()
	if len(want.PerApp) != len(s.Apps) {
		t.Fatalf("Evaluate listed %d of %d applications", len(want.PerApp), len(s.Apps))
	}
	want.PerApp = nil
	got, err := EvaluateTotals(p, s)
	if err != nil {
		t.Fatalf("EvaluateTotals: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EvaluateTotals diverges from Evaluate:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEvaluateTotalsMatchesEvaluate pins the totals-only mode of the
// Eq. 1/Eq. 2 loop to Evaluate across every kind, traced platforms
// with and without daily shifting, a chip-lifetime cap, strict Eq. 2
// accounting, and scenario lengths on both sides of any small-buffer
// threshold.
func TestEvaluateTotalsMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	variants := []struct {
		name string
		set  func(*Platform)
	}{
		{"scalar", func(*Platform) {}},
		{"traced", func(p *Platform) { p.UseTrace = diurnalTrace(8760) }},
		{"traced-shift", func(p *Platform) {
			p.UseTrace = diurnalTrace(8760)
			p.UseShift = carbon.ShiftDaily
		}},
		{"capped", func(p *Platform) { p.ChipLifetime = units.YearsOf(3) }},
	}
	for _, kind := range device.Kinds() {
		for _, v := range variants {
			p := randomPlatform(t, r, kind)
			p.ChipLifetime = 0
			v.set(&p)
			for _, napps := range []int{1, 5, 17, 100} {
				for _, strict := range []bool{false, true} {
					s := Scenario{Name: "totals", StrictEq2: strict}
					for i := 0; i < napps; i++ {
						s.Apps = append(s.Apps, Application{
							Name:      "app",
							Lifetime:  units.YearsOf(0.2 + r.Float64()*3),
							Volume:    1 + r.Float64()*1e6,
							SizeGates: r.Float64() * 2e8,
						})
					}
					want, err := Evaluate(p, s)
					if err != nil {
						t.Fatalf("%s/%s/%d apps: Evaluate: %v", kind, v.name, napps, err)
					}
					checkTotalsMatch(t, p, s, want)
				}
			}
		}
	}
}

// relClose compares masses to within a tiny relative tolerance — the
// O(1) uniform path multiplies the shared per-application contribution
// by n where the loop adds it n times, which reassociates the sum.
func relClose(a, b units.Mass) bool {
	x, y := a.Kilograms(), b.Kilograms()
	if x == y {
		return true
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// TestQuickEvaluateUniformMatchesLoop asserts that the O(1) uniform
// path matches the per-application loop on Uniform scenarios: exactly
// on every count and fleet quantity, and to within reassociation
// tolerance on every breakdown component.
func TestQuickEvaluateUniformMatchesLoop(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		kind := device.ASIC
		if i%2 == 0 {
			kind = device.FPGA
		}
		p := randomPlatform(t, r, kind)
		n := 1 + r.Intn(40)
		lifetime := units.YearsOf(0.2 + r.Float64()*5)
		volume := 1 + r.Float64()*1e6
		var sizeGates float64
		if r.Intn(2) == 0 {
			sizeGates = r.Float64() * 2e8
		}

		want, err := evaluateReference(p, Uniform("u", n, lifetime, volume, sizeGates))
		if err != nil {
			t.Fatalf("iter %d: reference: %v", i, err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("iter %d: Compile: %v", i, err)
		}
		got, err := c.EvaluateUniform(n, lifetime, volume, sizeGates)
		if err != nil {
			t.Fatalf("iter %d: EvaluateUniform: %v", i, err)
		}

		if got.Platform != want.Platform || got.Kind != want.Kind {
			t.Fatalf("iter %d: identity mismatch: %+v vs %+v", i, got, want)
		}
		if got.FleetSize != want.FleetSize ||
			got.HardwareGenerations != want.HardwareGenerations {
			t.Fatalf("iter %d: fleet quantities diverge:\ngot  %+v\nwant %+v", i, got, want)
		}
		// DevicesManufactured accumulates devices*gens per application
		// in the loop; the O(1) path multiplies once, so it reassociates
		// like the breakdown components.
		if !relClose(units.Kilograms(got.DevicesManufactured), units.Kilograms(want.DevicesManufactured)) {
			t.Fatalf("iter %d: devices manufactured diverge: got %g want %g",
				i, got.DevicesManufactured, want.DevicesManufactured)
		}
		if got.PerApp != nil {
			t.Fatalf("iter %d: EvaluateUniform must not allocate per-app entries", i)
		}
		pairs := []struct {
			name      string
			got, want units.Mass
		}{
			{"design", got.Breakdown.Design, want.Breakdown.Design},
			{"manufacturing", got.Breakdown.Manufacturing, want.Breakdown.Manufacturing},
			{"packaging", got.Breakdown.Packaging, want.Breakdown.Packaging},
			{"eol", got.Breakdown.EOL, want.Breakdown.EOL},
			{"operation", got.Breakdown.Operation, want.Breakdown.Operation},
			{"appdev", got.Breakdown.AppDevelopment, want.Breakdown.AppDevelopment},
			{"configuration", got.Breakdown.Configuration, want.Breakdown.Configuration},
			{"total", got.Total(), want.Total()},
		}
		for _, pr := range pairs {
			if !relClose(pr.got, pr.want) {
				t.Fatalf("iter %d: %s diverges: got %v want %v", i, pr.name, pr.got, pr.want)
			}
		}
	}
}

// TestCompiledCrossoversMatchLegacyScan asserts the binary-search
// CrossoverNumApps agrees with an exhaustive scan of the O(1) diff
// across randomized pairs.
func TestCompiledCrossoversMatchLegacyScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const maxN = 64
	for i := 0; i < 60; i++ {
		pr := Pair{
			FPGA: randomPlatform(t, r, device.FPGA),
			ASIC: randomPlatform(t, r, device.ASIC),
		}
		// The affine-diff argument needs uncapped generations; the
		// capped fall-back is the scan itself.
		pr.FPGA.ChipLifetime = 0
		pr.ASIC.ChipLifetime = 0
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		lifetime := units.YearsOf(0.2 + r.Float64()*4)
		volume := 1 + r.Float64()*1e6

		wantN, wantFound := 0, false
		for n := 1; n <= maxN; n++ {
			d, err := cp.DiffUniform(n, lifetime, volume, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d < 0 {
				wantN, wantFound = n, true
				break
			}
		}
		gotN, gotFound, err := cp.CrossoverNumApps(lifetime, volume, 0, maxN)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || gotFound != wantFound {
			t.Fatalf("iter %d: crossover (n=%d found=%v) vs scan (n=%d found=%v)",
				i, gotN, gotFound, wantN, wantFound)
		}
	}
}

// TestCompiledPairCompareMatchesPair asserts CompiledPair.Compare and
// Pair.Compare agree bit-for-bit.
func TestCompiledPairCompareMatchesPair(t *testing.T) {
	pr := testPair(t)
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s := Uniform("cmp", 4, units.YearsOf(1.5), 2e5, 0)
	want, err := pr.Compare(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Compare(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompiledPair.Compare diverges:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEvaluateUniformGenerationBoundary pins the chip-lifetime
// boundary case: 0.7*10 is exactly 7.0 under IEEE-754 but summing ten
// 0.7s exceeds it, so a multiplied total would under-count hardware
// generations by one relative to the loop path. The uniform path must
// sum like Scenario.TotalYears does.
func TestEvaluateUniformGenerationBoundary(t *testing.T) {
	fpga, _ := testPlatforms(t)
	fpga.ChipLifetime = units.YearsOf(7)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(fpga, Uniform("b", 10, units.YearsOf(0.7), 1e6, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EvaluateUniform(10, units.YearsOf(0.7), 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.HardwareGenerations != want.HardwareGenerations {
		t.Fatalf("generations: uniform path %d, loop path %d",
			got.HardwareGenerations, want.HardwareGenerations)
	}
	if !relClose(got.Total(), want.Total()) {
		t.Fatalf("totals diverge at the generation boundary: %v vs %v",
			got.Total(), want.Total())
	}
}

// TestEvaluateUniformErrors exercises the O(1) path's validation.
func TestEvaluateUniformErrors(t *testing.T) {
	fpga, _ := testPlatforms(t)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvaluateUniform(0, units.YearsOf(1), 1, 0); err == nil {
		t.Error("n = 0 must error")
	}
	if _, err := c.EvaluateUniform(1, units.YearsOf(-1), 1, 0); err == nil {
		t.Error("negative lifetime must error")
	}
	if _, err := c.EvaluateUniform(1, units.YearsOf(1), 0, 0); err == nil {
		t.Error("zero volume must error")
	}
	if _, err := c.EvaluateUniform(1, units.YearsOf(1), 1, -5); err == nil {
		t.Error("negative size must error")
	}
}
