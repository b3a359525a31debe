package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// expand writes every run of sch as its copies: separate deployments
// of the run's application, the first at the run's Start and each
// later one arriving the instant the previous retires.
func expand(sch Schedule) Schedule {
	out := sch
	out.Deployments = nil
	for _, d := range sch.Deployments {
		at := d.Start
		for range max(1, d.Repeat) {
			out.Deployments = append(out.Deployments, Deployment{App: d.App, Start: at})
			at = units.YearsOf(at.Years() + d.App.Lifetime.Years())
		}
	}
	return out
}

// randomRuns draws n runs of 0 to 12 copies (one in four of 13 to 60)
// laid out back to back (layout 0), with gaps before each arrival (1),
// or at random arrivals that generally overlap (2).
func randomRuns(r *rand.Rand, layout, n int) Schedule {
	sch := randomSchedule(r, layout, n)
	for i := range sch.Deployments {
		sch.Deployments[i].Repeat = r.Intn(13)
		if r.Intn(4) == 0 {
			sch.Deployments[i].Repeat = 13 + r.Intn(48)
		}
	}
	if layout%3 == 0 {
		sch.BackToBack()
	} else if layout%3 == 1 {
		// Re-space the gapped arrivals so the runs, now longer, still
		// leave gaps rather than overlap.
		var at units.Years
		for i := range sch.Deployments {
			at += units.YearsOf(r.Float64() * 3)
			sch.Deployments[i].Start = at
			at = sch.Deployments[i].End()
		}
	}
	return sch
}

// checkRunExpansion evaluates sch and its expansion on p under both
// fleet sizings, through EvaluateSchedule and EvaluateTotals, and
// requires the same assessments bit for bit: totals and breakdown,
// FleetSize, DevicesManufactured, HardwareGenerations, Span,
// PeakConcurrent, PeakDemand and the per-residency entries. The run's
// cumulative curve must also end at its total (checkCurve).
func checkRunExpansion(t *testing.T, p Platform, sch Schedule) bool {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	exp := expand(sch)
	if got, want := sch.Span(), exp.Span(); math.Float64bits(got.Years()) != math.Float64bits(want.Years()) {
		t.Errorf("Span: run %v, expansion %v", got, want)
		return false
	}
	if got, want := sch.PeakConcurrent(), exp.PeakConcurrent(); got != want {
		t.Errorf("PeakConcurrent: run %d, expansion %d", got, want)
		return false
	}
	for _, sizing := range []FleetSizing{SizeShared, SizeDedicated} {
		sch.Sizing, exp.Sizing = sizing, sizing
		got, err := c.EvaluateSchedule(sch)
		if err != nil {
			t.Fatalf("%s: EvaluateSchedule: %v", sizing, err)
		}
		want, err := c.EvaluateSchedule(exp)
		if err != nil {
			t.Fatalf("%s: EvaluateSchedule of the expansion: %v", sizing, err)
		}
		checkCurve(t, c, sch, got)
		if !reflect.DeepEqual(got, want) || math.Float64bits(float64(got.Total())) != math.Float64bits(float64(want.Total())) {
			t.Errorf("%s %s: run diverges from its expansion:\nrun       %+v\nexpansion %+v", sizing, p.Spec.Name, got, want)
			return false
		}
		pp := c.Prepared()
		gotT, err := pp.EvaluateTotals(pp.Knobs(), sch)
		if err != nil {
			t.Fatalf("%s: EvaluateTotals: %v", sizing, err)
		}
		wantT, err := pp.EvaluateTotals(pp.Knobs(), exp)
		if err != nil {
			t.Fatalf("%s: EvaluateTotals of the expansion: %v", sizing, err)
		}
		if !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("%s %s: run totals diverge from the expansion's:\nrun       %+v\nexpansion %+v", sizing, p.Spec.Name, gotT, wantT)
			return false
		}
	}
	return true
}

// TestRunMatchesExpansion is the run property: a schedule whose
// deployments repeat evaluates bit for bit as the same schedule with
// every run written out as its copies, on every kind (reusable and
// not), scalar, traced, shifted and capped platforms, back-to-back,
// gapped and overlapping layouts, either sizing and either Eq. 2
// reading. It also pins BackToBack, which must place a run's copies
// where it places the expansion's deployments, and a capped run whose
// summed lifetimes cross a generation boundary that their product
// does not (ten 0.7-year copies outlive a 7-year chip).
func TestRunMatchesExpansion(t *testing.T) {
	prop := func(seed int64, kind, variant, layout, runs uint8, strict bool) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlatform(t, r, allKinds[int(kind)%len(allKinds)])
		applyVariant(r, &p, int(variant))
		sch := randomRuns(r, int(layout), 1+int(runs)%6)
		sch.StrictEq2 = strict
		if layout%3 == 0 {
			placed := expand(sch)
			placed.BackToBack()
			if !reflect.DeepEqual(placed, expand(sch)) {
				t.Errorf("BackToBack places a run's copies apart from the expansion's deployments")
				return false
			}
		}
		return checkRunExpansion(t, p, sch)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}

	fpga, asic := testPlatforms(t)
	for _, p := range []Platform{fpga, asic} {
		p.ChipLifetime = units.YearsOf(7)
		sch := Schedule{Name: "boundary", Deployments: []Deployment{{
			App:    Application{Name: "a", Lifetime: units.YearsOf(0.7), Volume: 1e5},
			Repeat: 10,
		}}}
		checkRunExpansion(t, p, sch)
		a, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.EvaluateSchedule(sch)
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.Kind.Policy().Reusable && got.HardwareGenerations != 2 {
			t.Errorf("%s: ten 0.7-year copies on a 7-year chip: %d generations, want 2", p.Spec.Name, got.HardwareGenerations)
		}
	}
}

// FuzzRunExpansion drives checkRunExpansion with random runs on every
// kind, scalar, traced, shifted and capped.
func FuzzRunExpansion(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(3), true)
	f.Add(int64(3), uint8(2), uint8(2), uint8(1), uint8(2), false)
	f.Add(int64(4), uint8(3), uint8(3), uint8(2), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, kind, variant, layout, runs uint8, strict bool) {
		r := rand.New(rand.NewSource(seed))
		kinds := device.Kinds()
		p := randomPlatform(t, r, kinds[int(kind)%len(kinds)])
		applyVariant(r, &p, int(variant))
		sch := randomRuns(r, int(layout), 1+int(runs)%8)
		sch.StrictEq2 = strict
		checkRunExpansion(t, p, sch)
	})
}
