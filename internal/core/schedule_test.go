package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"greenfpga/internal/carbon"
	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// allKinds cycles the property tests through every platform class.
var allKinds = []device.Kind{device.ASIC, device.FPGA, device.GPU, device.CPU}

// TestQuickSequentialScheduleMatchesEvaluate is the degenerate-schedule
// equivalence property: serializing any legacy Scenario onto the
// timeline (Sequential) and evaluating it as a Schedule reproduces
// Evaluate — and the frozen reference implementation — bit for bit,
// for all four platform kinds, including chip-lifetime caps.
func TestQuickSequentialScheduleMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		kind := allKinds[i%len(allKinds)]
		p := randomPlatform(t, r, kind)
		s := randomScenario(r)

		want, err := Evaluate(p, s)
		if err != nil {
			t.Fatalf("iter %d: Evaluate: %v", i, err)
		}
		ref, err := evaluateReference(p, s)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", i, err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("iter %d: Compile: %v", i, err)
		}
		got, err := c.EvaluateSchedule(Sequential(s))
		if err != nil {
			t.Fatalf("iter %d: EvaluateSchedule: %v", i, err)
		}
		if !reflect.DeepEqual(got.Assessment, want) {
			t.Fatalf("iter %d: %s sequential schedule diverges from Evaluate:\ngot  %+v\nwant %+v",
				i, kind, got.Assessment, want)
		}
		if !reflect.DeepEqual(got.Assessment, ref) {
			t.Fatalf("iter %d: %s sequential schedule diverges from frozen reference", i, kind)
		}
		if got.Span.Years() != s.TotalYears().Years() {
			t.Fatalf("iter %d: span %v, scenario total %v", i, got.Span, s.TotalYears())
		}
		if got.PeakConcurrent != 1 {
			t.Fatalf("iter %d: back-to-back schedule has peak concurrency %d, want 1",
				i, got.PeakConcurrent)
		}
	}
}

// TestQuickSimultaneousScheduleMatchesUniform is the second half of
// the degenerate-schedule property: n identical applications arriving
// simultaneously (Staggered with interval 0) on an uncapped platform
// match Evaluate on the Uniform scenario bit for bit and
// EvaluateUniform to within the documented 1e-9 reassociation
// tolerance, for all four platform kinds. (Capped reusable platforms
// are the designed divergence — wall-clock refresh — and are pinned by
// TestScheduleSpanDrivesRefresh below; capped non-reusable platforms
// stay exact and are exercised here.)
func TestQuickSimultaneousScheduleMatchesUniform(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		kind := allKinds[i%len(allKinds)]
		p := randomPlatform(t, r, kind)
		if kind != device.ASIC {
			p.ChipLifetime = 0
		}
		n := 1 + r.Intn(12)
		lifetime := units.YearsOf(0.2 + r.Float64()*4)
		volume := 1 + r.Float64()*1e6
		var sizeGates float64
		if r.Intn(2) == 0 {
			sizeGates = r.Float64() * 2e8
		}

		c, err := Compile(p)
		if err != nil {
			t.Fatalf("iter %d: Compile: %v", i, err)
		}
		sch := Staggered("u", n, 0, lifetime, volume, sizeGates)
		got, err := c.EvaluateSchedule(sch)
		if err != nil {
			t.Fatalf("iter %d: EvaluateSchedule: %v", i, err)
		}

		want, err := c.Evaluate(Uniform("u", n, lifetime, volume, sizeGates))
		if err != nil {
			t.Fatalf("iter %d: Evaluate: %v", i, err)
		}
		if !reflect.DeepEqual(got.Assessment, want) {
			t.Fatalf("iter %d: %s simultaneous schedule diverges from Evaluate:\ngot  %+v\nwant %+v",
				i, kind, got.Assessment, want)
		}

		uni, err := c.EvaluateUniform(n, lifetime, volume, sizeGates)
		if err != nil {
			t.Fatalf("iter %d: EvaluateUniform: %v", i, err)
		}
		pairs := []struct {
			name      string
			got, want units.Mass
		}{
			{"design", got.Breakdown.Design, uni.Breakdown.Design},
			{"manufacturing", got.Breakdown.Manufacturing, uni.Breakdown.Manufacturing},
			{"packaging", got.Breakdown.Packaging, uni.Breakdown.Packaging},
			{"eol", got.Breakdown.EOL, uni.Breakdown.EOL},
			{"operation", got.Breakdown.Operation, uni.Breakdown.Operation},
			{"appdev", got.Breakdown.AppDevelopment, uni.Breakdown.AppDevelopment},
			{"configuration", got.Breakdown.Configuration, uni.Breakdown.Configuration},
			{"total", got.Total(), uni.Total()},
		}
		for _, pr := range pairs {
			if !relClose(pr.got, pr.want) {
				t.Fatalf("iter %d: %s %s diverges from EvaluateUniform: got %v want %v",
					i, kind, pr.name, pr.got, pr.want)
			}
		}
		if got.FleetSize != uni.FleetSize || got.HardwareGenerations != uni.HardwareGenerations {
			t.Fatalf("iter %d: fleet quantities diverge: %+v vs %+v", i, got.Assessment, uni)
		}
		if got.PeakConcurrent != n {
			t.Fatalf("iter %d: peak concurrency %d, want %d", i, got.PeakConcurrent, n)
		}
	}
}

// TestQuickScheduleSetMatchesLegacyPaths pins the set plumbing: a
// CompiledSet evaluated on a degenerate schedule reproduces the set
// comparison bit for bit (ratios, winner, assessments).
func TestQuickScheduleSetMatchesLegacyPaths(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		set := Set{
			randomPlatform(t, r, device.FPGA),
			randomPlatform(t, r, device.ASIC),
			randomPlatform(t, r, device.GPU),
			randomPlatform(t, r, device.CPU),
		}
		s := randomScenario(r)
		cs, err := set.Compile()
		if err != nil {
			t.Fatalf("iter %d: compile: %v", i, err)
		}
		want, err := cs.Compare(s)
		if err != nil {
			t.Fatalf("iter %d: Compare: %v", i, err)
		}
		got, err := cs.CompareSchedule(Sequential(s))
		if err != nil {
			t.Fatalf("iter %d: CompareSchedule: %v", i, err)
		}
		for j := range cs {
			if !reflect.DeepEqual(got.Assessments[j].Assessment, want.Assessments[j]) {
				t.Fatalf("iter %d: platform %d diverges from set compare", i, j)
			}
		}
		if !reflect.DeepEqual(got.Ratios, want.Ratios) || got.Winner != want.Winner {
			t.Fatalf("iter %d: ratios/winner diverge: %+v vs %+v", i, got, want)
		}
		if got.WinnerAssessment().Platform != want.WinnerAssessment().Platform {
			t.Fatalf("iter %d: winner assessment mismatch", i)
		}
	}
}

// TestScheduleSpanDrivesRefresh pins the designed semantic difference
// from the legacy path: a reusable fleet refreshes on wall-clock span,
// so overlapping deployments compress generations and late arrivals
// stretch them.
func TestScheduleSpanDrivesRefresh(t *testing.T) {
	fpga, _ := testPlatforms(t)
	fpga.ChipLifetime = units.YearsOf(8)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}

	// Five 2-year apps back to back: 10-year span, two generations —
	// exactly the legacy accounting.
	seq, err := c.EvaluateSchedule(Sequential(Uniform("s", 5, units.YearsOf(2), 1e5, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if seq.HardwareGenerations != 2 || seq.Span.Years() != 10 {
		t.Fatalf("sequential: gens %d span %v, want 2 gens over 10y", seq.HardwareGenerations, seq.Span)
	}

	// The same five apps staggered every six months: 4-year span, one
	// generation — overlap compresses the refresh clock.
	stag, err := c.EvaluateSchedule(Staggered("s", 5, units.YearsOf(0.5), units.YearsOf(2), 1e5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stag.HardwareGenerations != 1 || stag.Span.Years() != 4 {
		t.Fatalf("staggered: gens %d span %v, want 1 gen over 4y", stag.HardwareGenerations, stag.Span)
	}
	if stag.Total() >= seq.Total() {
		t.Errorf("staggering under a refresh cap must cut the FPGA total: %v vs %v",
			stag.Total(), seq.Total())
	}

	// A late arrival stretches the span past a refresh boundary.
	late := Schedule{Name: "late", Deployments: []Deployment{
		{App: Application{Name: "a", Lifetime: units.YearsOf(2), Volume: 1e5}},
		{App: Application{Name: "b", Lifetime: units.YearsOf(2), Volume: 1e5}, Start: units.YearsOf(9)},
	}}
	got, err := c.EvaluateSchedule(late)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span.Years() != 11 || got.HardwareGenerations != 2 {
		t.Fatalf("late arrival: span %v gens %d, want 11y and 2 gens", got.Span, got.HardwareGenerations)
	}
	// The span starts at the first arrival, not at t=0.
	shifted := Schedule{Name: "shifted", Deployments: []Deployment{
		{App: Application{Name: "a", Lifetime: units.YearsOf(2), Volume: 1e5}, Start: units.YearsOf(5)},
		{App: Application{Name: "b", Lifetime: units.YearsOf(2), Volume: 1e5}, Start: units.YearsOf(7)},
	}}
	sgot, err := c.EvaluateSchedule(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if sgot.Span.Years() != 4 || sgot.HardwareGenerations != 1 {
		t.Fatalf("shifted schedule: span %v gens %d, want 4y and 1 gen", sgot.Span, sgot.HardwareGenerations)
	}
}

// TestScheduleSizing pins shared vs dedicated fleet provisioning and
// the concurrency sweep's half-open residency semantics.
func TestScheduleSizing(t *testing.T) {
	fpga, _ := testPlatforms(t)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	overlap := Staggered("o", 3, units.YearsOf(0.5), units.YearsOf(2), 1e5, 0)

	shared, err := c.EvaluateSchedule(overlap)
	if err != nil {
		t.Fatal(err)
	}
	if shared.FleetSize != 1e5 {
		t.Errorf("shared fleet %g, want 1e5 (largest resident)", shared.FleetSize)
	}
	if shared.PeakConcurrent != 3 || shared.PeakDemand != 3e5 {
		t.Errorf("peaks: %d deployments / %g devices, want 3 / 3e5",
			shared.PeakConcurrent, shared.PeakDemand)
	}

	overlap.Sizing = SizeDedicated
	ded, err := c.EvaluateSchedule(overlap)
	if err != nil {
		t.Fatal(err)
	}
	if ded.FleetSize != 3e5 || ded.DevicesManufactured != 3e5 {
		t.Errorf("dedicated fleet %g (%g manufactured), want 3e5", ded.FleetSize, ded.DevicesManufactured)
	}
	if ded.Total() <= shared.Total() {
		t.Errorf("dedicated sizing must cost more than shared: %v vs %v", ded.Total(), shared.Total())
	}

	// Half-open residencies: a retirement at t does not overlap an
	// arrival at t, so back-to-back deployments never stack.
	seq := Staggered("s", 3, units.YearsOf(2), units.YearsOf(2), 1e5, 0)
	seq.Sizing = SizeDedicated
	got, err := c.EvaluateSchedule(seq)
	if err != nil {
		t.Fatal(err)
	}
	if got.PeakConcurrent != 1 || got.FleetSize != 1e5 {
		t.Errorf("back-to-back dedicated: peak %d fleet %g, want 1 / 1e5",
			got.PeakConcurrent, got.FleetSize)
	}
}

// TestScheduleValidation exercises the error paths.
func TestScheduleValidation(t *testing.T) {
	fpga, _ := testPlatforms(t)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Schedule{
		{Name: "empty"},
		{Name: "neg-start", Deployments: []Deployment{
			{App: Application{Name: "a", Lifetime: units.YearsOf(1), Volume: 1}, Start: units.YearsOf(-1)},
		}},
		{Name: "neg-repeat", Deployments: []Deployment{
			{App: Application{Name: "a", Lifetime: units.YearsOf(1), Volume: 1}, Repeat: -1},
		}},
		{Name: "bad-app", Deployments: []Deployment{
			{App: Application{Name: "a", Lifetime: units.YearsOf(1)}},
		}},
		{Name: "bad-sizing", Sizing: "elastic", Deployments: []Deployment{
			{App: Application{Name: "a", Lifetime: units.YearsOf(1), Volume: 1}},
		}},
	}
	for _, sch := range cases {
		if _, err := c.EvaluateSchedule(sch); err == nil {
			t.Errorf("schedule %q must not evaluate", sch.Name)
		}
	}
	if (Schedule{}).Span() != 0 {
		t.Error("empty schedule must span zero")
	}
	if _, err := (CompiledSet{}).CompareSchedule(Sequential(Uniform("x", 1, units.YearsOf(1), 1, 0))); err == nil {
		t.Error("empty compiled set must not compare")
	}
	if sch := Staggered("n", -3, 0, units.YearsOf(1), 1, 0); len(sch.Deployments) != 0 || sch.Validate() == nil {
		t.Error("negative n must yield an empty (invalid) schedule")
	}
}

// applyVariant sets the operation and refresh model the schedule and
// prepared-draw checks run on: 0 scalar, 1 traced, 2 traced with daily
// clean-hours shifting, 3 capped at a random chip lifetime.
func applyVariant(r *rand.Rand, p *Platform, variant int) {
	switch variant % 4 {
	case 1:
		p.UseTrace = diurnalTrace(24 * 28)
	case 2:
		p.UseTrace = diurnalTrace(24 * 28)
		p.UseShift = carbon.ShiftDaily
	case 3:
		p.ChipLifetime = units.YearsOf(0.5 + r.Float64()*5)
	}
}

// randomSchedule draws n deployments laid out back to back (layout 0),
// with gaps before each arrival (1), or at random arrivals that
// generally overlap (2).
func randomSchedule(r *rand.Rand, layout, n int) Schedule {
	sch := Schedule{Name: "rand", StrictEq2: r.Intn(4) == 0}
	var at float64
	for i := 0; i < n; i++ {
		app := Application{
			Name:     fmt.Sprintf("app%d", i+1),
			Lifetime: units.YearsOf(0.2 + r.Float64()*5),
			Volume:   1 + r.Float64()*1e6,
		}
		if r.Intn(2) == 0 {
			app.SizeGates = r.Float64() * 2e8
		}
		if r.Intn(3) == 0 {
			app.UtilizationScale = 0.1 + r.Float64()*0.9
		}
		switch layout % 3 {
		case 1:
			at += r.Float64() * 3
		case 2:
			at = r.Float64() * 6
		}
		sch.Deployments = append(sch.Deployments, Deployment{App: app, Start: units.YearsOf(at)})
		if layout%3 != 2 {
			at += app.Lifetime.Years()
		}
	}
	return sch
}

// overlapping reports whether any two deployments of the schedule are
// resident at once, residencies being half-open [Start, End).
func overlapping(sch Schedule) bool {
	for i, a := range sch.Deployments {
		for _, b := range sch.Deployments[i+1:] {
			if a.Start < b.End() && b.Start < a.End() {
				return true
			}
		}
	}
	return false
}

// checkScheduleInvariants evaluates sch on p under both fleet sizings
// and checks that every total is finite, that the prepared-draw path at
// p's own knobs is EvaluateSchedule with PerApp cleared, that the
// cumulative curve ends at the total (see checkCurve), and that a
// dedicated fleet costs at least as much as a shared one — exactly as
// much when no deployments overlap. It returns both totals.
func checkScheduleInvariants(t *testing.T, p Platform, sch Schedule) (shared, dedicated units.Mass) {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pp, err := Prepare(p)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var totals [2]units.Mass
	for i, sizing := range []FleetSizing{SizeShared, SizeDedicated} {
		sch.Sizing = sizing
		got, err := c.EvaluateSchedule(sch)
		if err != nil {
			t.Fatalf("%s: EvaluateSchedule: %v", sizing, err)
		}
		b := got.Breakdown
		for _, x := range []float64{float64(got.Total()), float64(b.Design), float64(b.Manufacturing),
			float64(b.Packaging), float64(b.EOL), float64(b.Operation), float64(b.AppDevelopment),
			float64(b.Configuration), got.FleetSize, got.DevicesManufactured, got.PeakDemand} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: non-finite assessment %+v", sizing, got)
			}
		}
		checkCurve(t, c, sch, got)
		want := got.Assessment
		want.PerApp = nil
		totalsOnly, err := pp.EvaluateTotals(pp.Knobs(), sch)
		if err != nil {
			t.Fatalf("%s: EvaluateTotals: %v", sizing, err)
		}
		if !reflect.DeepEqual(totalsOnly, want) {
			t.Fatalf("%s: prepared draw diverges from EvaluateSchedule:\ngot  %+v\nwant %+v", sizing, totalsOnly, want)
		}
		totals[i] = got.Total()
	}
	if totals[1] < totals[0] {
		t.Fatalf("dedicated fleet total %v below shared %v", totals[1], totals[0])
	}
	if !overlapping(sch) && totals[1] != totals[0] {
		t.Fatalf("no deployments overlap, yet dedicated %v differs from shared %v", totals[1], totals[0])
	}
	return totals[0], totals[1]
}

// checkCurve builds sch's cumulative curve on c and requires its last
// point to be the assessment's total, within 1e-12 of the breakdown's
// absolute component sum: every event lands and every residency's
// operation accrues by the last retirement.
func checkCurve(t *testing.T, c *Compiled, sch Schedule, a ScheduleAssessment) {
	t.Helper()
	cc, err := c.Cumulative(sch, 16)
	if err != nil {
		t.Fatalf("%s: Cumulative: %v", sch.Sizing, err)
	}
	b := a.Breakdown
	var scale float64
	for _, x := range []units.Mass{b.Design, b.Manufacturing, b.Packaging, b.EOL, b.Operation, b.AppDevelopment, b.Configuration} {
		scale += math.Abs(float64(x))
	}
	if d := math.Abs(float64(cc.Total() - a.Total())); d > 1e-12*scale {
		t.Fatalf("%s %s: curve ends at %v, assessment total %v (|diff| %g of %g)",
			sch.Sizing, c.Platform().Spec.Name, cc.Total(), a.Total(), d, scale)
	}
}

// TestQuickScheduleProperties checks the shape of Eqs. 1-2 over random
// platforms of every kind — scalar, traced, shifted and capped — and
// back-to-back, gapped and overlapping schedules: on top of
// checkScheduleInvariants, the totals under either sizing never fall
// when one deployment lives longer (its arrival fixed) or serves a
// larger volume.
func TestQuickScheduleProperties(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		kind := allKinds[i%len(allKinds)]
		p := randomPlatform(t, r, kind)
		applyVariant(r, &p, r.Intn(4))
		sch := randomSchedule(r, r.Intn(3), 1+r.Intn(8))
		shared, dedicated := checkScheduleInvariants(t, p, sch)

		j := r.Intn(len(sch.Deployments))
		for _, bump := range []struct {
			name string
			set  func(*Application, float64)
		}{
			{"lifetime", func(a *Application, f float64) { a.Lifetime = units.YearsOf(a.Lifetime.Years() * f) }},
			{"volume", func(a *Application, f float64) { a.Volume *= f }},
		} {
			more := sch
			more.Deployments = append([]Deployment(nil), sch.Deployments...)
			bump.set(&more.Deployments[j].App, 1+r.Float64())
			s2, d2 := checkScheduleInvariants(t, p, more)
			if s2 < shared || d2 < dedicated {
				t.Fatalf("iter %d: %s %s: a larger %s of deployment %d cut the total: shared %v -> %v, dedicated %v -> %v",
					i, kind, p.Spec.Name, bump.name, j, shared, s2, dedicated, d2)
			}
		}
	}
}

// FuzzSchedule drives the one Eq. 1/Eq. 2 loop with random back-to-back,
// gapped and overlapping schedules on every kind, scalar, traced and
// capped: totals are finite, the prepared-draw path equals
// EvaluateSchedule, and a dedicated fleet never costs less than a
// shared one (see checkScheduleInvariants).
func FuzzSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(5), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), uint8(8), true)
	f.Add(int64(3), uint8(2), uint8(3), uint8(1), uint8(3), false)
	f.Add(int64(4), uint8(3), uint8(2), uint8(2), uint8(20), false)
	f.Fuzz(func(t *testing.T, seed int64, kind, variant, layout, napps uint8, strict bool) {
		r := rand.New(rand.NewSource(seed))
		kinds := device.Kinds()
		p := randomPlatform(t, r, kinds[int(kind)%len(kinds)])
		applyVariant(r, &p, int(variant))
		sch := randomSchedule(r, int(layout), 1+int(napps)%32)
		sch.StrictEq2 = strict
		checkScheduleInvariants(t, p, sch)
	})
}
