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
		pp, err := Prepare(p)
		if err != nil {
			t.Fatalf("iter %d: Prepare: %v", i, err)
		}
		checkTotalsMatch(t, pp, pp.Knobs(), s, want)
	}
}

// checkTotalsMatch asserts that the prepared platform evaluated at
// knobs k reproduces want — an Evaluate result for the platform with k
// applied, on s — bit for bit with PerApp left nil.
func checkTotalsMatch(t *testing.T, pp *Prepared, k Knobs, s Scenario, want Assessment) {
	t.Helper()
	if len(want.PerApp) != len(s.Apps) {
		t.Fatalf("Evaluate listed %d of %d applications", len(want.PerApp), len(s.Apps))
	}
	want.PerApp = nil
	got, err := pp.EvaluateTotals(k, Sequential(s))
	if err != nil {
		t.Fatalf("Prepared.EvaluateTotals: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Prepared.EvaluateTotals diverges from Evaluate at %+v:\ngot  %+v\nwant %+v", k, got, want)
	}
}

// withKnobs is the platform p with knobs k applied: the platform
// Prepared.EvaluateTotals(k, s) must evaluate like.
func withKnobs(p Platform, k Knobs) Platform {
	p.DutyCycle = k.DutyCycle
	p.DesignEngineers = k.DesignEngineers
	p.RecycledMaterialFraction = k.RecycledMaterialFraction
	p.EOL.RecycleFraction = k.EOLRecycleFraction
	ad := p.appDev()
	ad.FrontEnd, ad.BackEnd = k.FrontEnd, k.BackEnd
	p.AppDev = &ad
	return p
}

// randomKnobs draws an in-range knob vector, zero staffing and zero
// delta (the model defaults) included.
func randomKnobs(r *rand.Rand) Knobs {
	k := Knobs{
		DutyCycle:                r.Float64(),
		DesignEngineers:          r.Float64() * 600,
		RecycledMaterialFraction: r.Float64(),
		EOLRecycleFraction:       r.Float64(),
		FrontEnd:                 units.Months(r.Float64() * 3),
		BackEnd:                  units.Months(r.Float64() * 2),
	}
	switch r.Intn(8) {
	case 0:
		k.DesignEngineers = 0
	case 1:
		k.EOLRecycleFraction = 0
	case 2:
		k.DutyCycle = 0
	}
	return k
}

// checkKnobErrors asserts that out-of-range knobs fail the prepared
// path with the error Evaluate reports on the platform with them
// applied, never with a number.
func checkKnobErrors(t *testing.T, pp *Prepared, p Platform, s Scenario) {
	t.Helper()
	for _, c := range []struct {
		name string
		set  func(*Knobs)
	}{
		{"duty 1.2", func(k *Knobs) { k.DutyCycle = 1.2 }},
		{"duty -0.1", func(k *Knobs) { k.DutyCycle = -0.1 }},
		{"staff -1", func(k *Knobs) { k.DesignEngineers = -1 }},
		{"rho -0.1", func(k *Knobs) { k.RecycledMaterialFraction = -0.1 }},
		{"rho 1.1", func(k *Knobs) { k.RecycledMaterialFraction = 1.1 }},
		{"delta 1.5", func(k *Knobs) { k.EOLRecycleFraction = 1.5 }},
		{"delta -0.5", func(k *Knobs) { k.EOLRecycleFraction = -0.5 }},
		{"negative FE", func(k *Knobs) { k.FrontEnd = units.Months(-1) }},
		{"negative BE", func(k *Knobs) { k.BackEnd = units.Months(-0.5) }},
	} {
		k := pp.Knobs()
		c.set(&k)
		got, err := pp.EvaluateTotals(k, Sequential(s))
		if err == nil {
			t.Fatalf("%s: prepared draw returned %v, want an error", c.name, got.Total())
		}
		if _, want := Evaluate(withKnobs(p, k), s); want == nil || want.Error() != err.Error() {
			t.Fatalf("%s: prepared draw error %q, Evaluate error %v", c.name, err, want)
		}
	}
}

// TestEvaluateTotalsMatchesEvaluate pins the prepared-member path — one
// Prepare per platform, then a knob stage and the totals-only Eq.
// 1/Eq. 2 loop per draw — to Evaluate on the platform with the drawn
// knobs applied, across every kind, traced platforms with and without
// daily shifting, a chip-lifetime cap, strict Eq. 2 accounting, and
// scenario lengths on both sides of any small-buffer threshold, with
// no tolerance; out-of-range knobs must fail exactly like Evaluate.
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
			pp, err := Prepare(p)
			if err != nil {
				t.Fatalf("%s/%s: Prepare: %v", kind, v.name, err)
			}
			var scenarios []Scenario
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
					scenarios = append(scenarios, s)
				}
			}
			for i := 0; i < 20; i++ {
				k := randomKnobs(r)
				for _, s := range scenarios {
					want, err := Evaluate(withKnobs(p, k), s)
					if err != nil {
						t.Fatalf("%s/%s/%d apps: Evaluate: %v", kind, v.name, len(s.Apps), err)
					}
					checkTotalsMatch(t, pp, k, s, want)
				}
			}
			checkKnobErrors(t, pp, p, scenarios[0])
		}
	}
}

// FuzzPreparedDraw checks the prepared-member path against Evaluate
// over random platforms and knob vectors, in range or not: the totals
// must agree bit for bit, and an out-of-range knob must fail both
// paths with the same error. Both paths run the one Eq. 1/Eq. 2 loop,
// so on untraced platforms the totals must also match the frozen
// reference, the independent implementation of the paper's equations.
func FuzzPreparedDraw(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), false, 0.5, 300.0, 0.3, 0.25, 2.0, 1.0)
	f.Add(int64(2), uint8(1), uint8(1), uint8(17), true, 0.9, 0.0, 1.0, 0.0, 1.5, 0.5)
	f.Add(int64(3), uint8(2), uint8(2), uint8(1), false, 0.1, 120.0, 0.0, 0.95, 0.0, 0.0)
	f.Add(int64(4), uint8(3), uint8(3), uint8(100), true, 1.0, 450.0, 0.5, 0.05, 2.5, 1.5)
	f.Add(int64(5), uint8(1), uint8(0), uint8(5), false, 1.2, 300.0, 0.3, 0.25, 2.0, 1.0)
	f.Add(int64(6), uint8(0), uint8(0), uint8(5), false, 0.5, 300.0, -0.1, 0.25, 2.0, 1.0)
	f.Add(int64(7), uint8(1), uint8(3), uint8(5), true, 0.5, 300.0, 0.3, 1.5, 2.0, 1.0)
	f.Add(int64(8), uint8(1), uint8(1), uint8(5), false, 0.5, 300.0, 0.3, 0.25, -2.0, 1.0)
	f.Add(int64(9), uint8(2), uint8(0), uint8(5), false, 0.5, -3.0, 0.3, 0.25, 2.0, 1.0)
	f.Add(int64(10), uint8(1), uint8(3), uint8(12), false, 0.5, 300.0, 0.3, 0.25, 2.0, 1.0)
	f.Add(int64(11), uint8(0), uint8(3), uint8(12), true, 0.3, 200.0, 0.6, 0.5, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, kind, variant, napps uint8, strict bool,
		duty, staff, rho, delta, feMonths, beMonths float64) {
		for _, x := range []float64{duty, staff, rho, delta, feMonths, beMonths} {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				t.Skip("knobs are finite and of model scale")
			}
		}
		r := rand.New(rand.NewSource(seed))
		kinds := device.Kinds()
		p := randomPlatform(t, r, kinds[int(kind)%len(kinds)])
		applyVariant(r, &p, int(variant))
		s := Scenario{Name: "fuzz", StrictEq2: strict}
		for i := 0; i < 1+int(napps)%100; i++ {
			s.Apps = append(s.Apps, Application{
				Name:      "app",
				Lifetime:  units.YearsOf(0.2 + r.Float64()*3),
				Volume:    1 + r.Float64()*1e6,
				SizeGates: r.Float64() * 2e8,
			})
		}
		k := Knobs{
			DutyCycle:                duty,
			DesignEngineers:          staff,
			RecycledMaterialFraction: rho,
			EOLRecycleFraction:       delta,
			FrontEnd:                 units.Months(feMonths),
			BackEnd:                  units.Months(beMonths),
		}
		pp, err := Prepare(p)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		want, wantErr := Evaluate(withKnobs(p, k), s)
		got, err := pp.EvaluateTotals(k, Sequential(s))
		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
				t.Fatalf("errors differ: prepared %v, Evaluate %v", err, wantErr)
			}
		default:
			want.PerApp = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prepared draw diverges from Evaluate at %+v:\ngot  %+v\nwant %+v", k, got, want)
			}
			if len(p.UseTrace) > 0 {
				return // the frozen reference predates traced operation
			}
			ref, err := evaluateReference(withKnobs(p, k), s)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			ref.PerApp = nil
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("prepared draw diverges from the frozen reference at %+v:\ngot  %+v\nwant %+v", k, got, ref)
			}
		}
	})
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
// CrossoverNumAppsBetween agrees with an exhaustive scan of the O(1) diff
// across randomized pairs.
func TestCompiledCrossoversMatchLegacyScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const maxN = 64
	for i := 0; i < 60; i++ {
		pair := Set{
			randomPlatform(t, r, device.FPGA),
			randomPlatform(t, r, device.ASIC),
		}
		// The affine-diff argument needs uncapped generations; the
		// capped fall-back is the scan itself.
		pair[0].ChipLifetime = 0
		pair[1].ChipLifetime = 0
		cs, err := pair.Compile()
		if err != nil {
			t.Fatal(err)
		}
		lifetime := units.YearsOf(0.2 + r.Float64()*4)
		volume := 1 + r.Float64()*1e6

		wantN, wantFound := 0, false
		for n := 1; n <= maxN; n++ {
			d, err := DiffUniformBetween(cs[0], cs[1], n, lifetime, volume, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d < 0 {
				wantN, wantFound = n, true
				break
			}
		}
		gotN, gotFound, err := CrossoverNumAppsBetween(cs[0], cs[1], lifetime, volume, 0, maxN)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || gotFound != wantFound {
			t.Fatalf("iter %d: crossover (n=%d found=%v) vs scan (n=%d found=%v)",
				i, gotN, gotFound, wantN, wantFound)
		}
	}
}

// TestCompiledPairCompareMatchesPair pins the compiled FPGA/ASIC pair
// (a two-member set, FPGA first) against the pair evaluated platform
// by platform on the uncompiled path: the same assessments, the same
// FPGA:ASIC ratio and the same winner.
func TestCompiledPairCompareMatchesPair(t *testing.T) {
	fpga, asic := testPlatforms(t)
	cs, err := Set{fpga, asic}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s := Uniform("cmp", 4, units.YearsOf(1.5), 2e5, 0)
	wantF, err := Evaluate(fpga, s)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := Evaluate(asic, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Compare(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Assessments, []Assessment{wantF, wantA}) {
		t.Fatalf("compiled pair diverges:\ngot  %+v\nwant %+v", got.Assessments, []Assessment{wantF, wantA})
	}
	ratio := wantF.Total().Kilograms() / wantA.Total().Kilograms()
	if got.Ratio(0, 1) != ratio {
		t.Errorf("FPGA:ASIC ratio %g, want %g", got.Ratio(0, 1), ratio)
	}
	wantWinner := 1
	if ratio < 1 {
		wantWinner = 0
	}
	if got.Winner != wantWinner {
		t.Errorf("winner %d, want %d (ratio %g)", got.Winner, wantWinner, ratio)
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
