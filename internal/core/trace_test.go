package core

import (
	"math"
	"reflect"
	"testing"

	"greenfpga/internal/carbon"
	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// diurnalTrace builds a deterministic day/night intensity swing.
func diurnalTrace(n int) carbon.Trace {
	tr := make(carbon.Trace, n)
	for i := range tr {
		tr[i] = units.GramsPerKWh(300 + 250*math.Sin(2*math.Pi*float64(i%24)/24))
	}
	return tr
}

// relDiff is the relative difference between two masses.
func relDiff(a, b units.Mass) float64 {
	if b == 0 {
		return math.Abs(a.Kilograms())
	}
	return math.Abs(a.Kilograms()-b.Kilograms()) / math.Abs(b.Kilograms())
}

// TestTracedFlatMatchesScalar: siting a platform on a flat trace whose
// level equals its scalar grid intensity must reproduce the scalar
// operational carbon (up to float associativity — the flat-window
// identity is pinned exactly in the carbon package).
func TestTracedFlatMatchesScalar(t *testing.T) {
	fpga, asic := testPlatforms(t)
	for _, p := range []Platform{fpga, asic} {
		mix, err := grid.ByRegion(grid.RegionWorld)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := mix.Intensity()
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		traced := p
		traced.UseTrace = carbon.Flat(ci, 24)
		tc, err := Compile(traced)
		if err != nil {
			t.Fatal(err)
		}
		s := Uniform("flat", 4, units.YearsOf(1.5), 1e5, 0)
		a, err := scalar.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tc.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(b.Breakdown.Operation, a.Breakdown.Operation); d > 1e-12 {
			t.Errorf("%s: flat-traced operation %v vs scalar %v (rel %g)", p.Spec.Kind, b.Breakdown.Operation, a.Breakdown.Operation, d)
		}
		if b.Breakdown.Manufacturing != a.Breakdown.Manufacturing || b.Breakdown.Design != a.Breakdown.Design {
			t.Errorf("%s: embodied terms moved under a trace", p.Spec.Kind)
		}
	}
}

// TestTracedEvaluateMatchesSequential: on a traced platform the legacy
// Evaluate and the schedule engine on the equivalent back-to-back
// timeline must agree bit for bit — Evaluate accumulates arrival
// offsets exactly as Sequential writes them.
func TestTracedEvaluateMatchesSequential(t *testing.T) {
	fpga, asic := testPlatforms(t)
	for _, p := range []Platform{fpga, asic} {
		p.UseTrace = diurnalTrace(8760)
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		s := Scenario{Name: "seq", Apps: []Application{
			{Name: "a", Lifetime: units.YearsOf(0.7), Volume: 1e5},
			{Name: "b", Lifetime: units.YearsOf(1.3), Volume: 5e4, UtilizationScale: 0.6},
			{Name: "c", Lifetime: units.YearsOf(2.1), Volume: 2e5},
		}}
		direct, err := c.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := c.EvaluateSchedule(Sequential(s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, sched.Assessment) {
			t.Errorf("%s: Evaluate != EvaluateSchedule(Sequential): %+v vs %+v", p.Spec.Kind, direct, sched.Assessment)
		}
	}
}

// TestTracedUniformMatchesEvaluate: the uniform fast path must agree
// with the per-application loop on traced platforms (same windows,
// summed the same way) to a relative ulp bound.
func TestTracedUniformMatchesEvaluate(t *testing.T) {
	fpga, _ := testPlatforms(t)
	fpga.UseTrace = diurnalTrace(8760)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	const n, vol = 5, 1e5
	life := units.YearsOf(0.9)
	u, err := c.EvaluateUniform(n, life, vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.Evaluate(Uniform("u", n, life, vol, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(u.Breakdown.Operation, e.Breakdown.Operation); d > 1e-12 {
		t.Errorf("uniform traced operation %v vs loop %v (rel %g)", u.Breakdown.Operation, e.Breakdown.Operation, d)
	}
}

// TestTracedStartMatters: moving a residency window across a varying
// trace must move its operational carbon — the whole point of the
// engine — while scalar platforms stay position-independent.
func TestTracedStartMatters(t *testing.T) {
	fpga, _ := testPlatforms(t)
	app := Application{Name: "x", Lifetime: units.YearsOf(0.5), Volume: 1e5}
	at := func(p Platform, start float64) units.Mass {
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.EvaluateSchedule(Schedule{Name: "s", Deployments: []Deployment{{App: app, Start: units.YearsOf(start)}}})
		if err != nil {
			t.Fatal(err)
		}
		return a.Breakdown.Operation
	}
	traced := fpga
	traced.UseTrace = diurnalTrace(8760)
	if a, b := at(traced, 0), at(traced, 0.5); a == b {
		t.Errorf("traced operation identical (%v) across a half-year start shift", a)
	}
	if a, b := at(fpga, 0), at(fpga, 0.5); a != b {
		t.Errorf("scalar operation moved with start: %v vs %v", a, b)
	}
}

// TestShiftBeatsUniform: the daily policy on a varying trace must cut
// operational carbon and leave every embodied term alone; on the
// scalar path shift selectors are rejected outright.
func TestShiftBeatsUniform(t *testing.T) {
	fpga, _ := testPlatforms(t)
	fpga.UseTrace = diurnalTrace(8760)
	plain, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	shifted := fpga
	shifted.UseShift = carbon.ShiftDaily
	sc, err := Compile(shifted)
	if err != nil {
		t.Fatal(err)
	}
	s := Uniform("w", 3, units.YearsOf(2), 1e5, 0)
	a, err := plain.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.Breakdown.Operation.Kilograms() >= a.Breakdown.Operation.Kilograms() {
		t.Errorf("shifted operation %v not below uniform %v", b.Breakdown.Operation, a.Breakdown.Operation)
	}
	if b.Breakdown.Manufacturing != a.Breakdown.Manufacturing {
		t.Errorf("shift moved embodied carbon")
	}

	bad := fpga
	bad.UseTrace = nil
	bad.UseShift = carbon.ShiftDaily
	if err := bad.Validate(); err == nil {
		t.Error("shift without a trace validated")
	}
	bad.UseShift = "hourly"
	if err := bad.Validate(); err == nil {
		t.Error("unknown shift policy validated")
	}
}

// TestRegionIntegratorReuse: compiling two platforms against the same
// cached region integrator must share the constants (pointer
// equality), the "compiled per-region trace constants" contract.
func TestRegionIntegratorReuse(t *testing.T) {
	it, err := carbon.IntegratorFor("oregon")
	if err != nil {
		t.Fatal(err)
	}
	fpga, asic := testPlatforms(t)
	fpga.UseIntegrator = it
	asic.UseIntegrator = it
	cf, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Compile(asic)
	if err != nil {
		t.Fatal(err)
	}
	if cf.op.integ == nil || cf.op.integ != ca.op.integ {
		t.Error("compiled platforms did not share the cached region integrator")
	}
}
