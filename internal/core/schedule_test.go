package core

import (
	"math/rand"
	"reflect"
	"testing"

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
