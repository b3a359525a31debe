package core

import (
	"math"
	"testing"

	"greenfpga/internal/device"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
)

// lifePlatforms builds the FPGA (15-year chip lifetime) and ASIC of the
// cumulative-curve tests.
func lifePlatforms(t *testing.T) (fpga, asic Platform) {
	t.Helper()
	node, err := technode.ByName("10nm")
	if err != nil {
		t.Fatal(err)
	}
	asic = Platform{
		Spec: device.Spec{
			Name: "lc-asic", Kind: device.ASIC, Node: node,
			DieArea: units.MM2(100), PeakPower: units.Watts(5),
		},
		DutyCycle: 0.3,
	}
	fpga = Platform{
		Spec: device.Spec{
			Name: "lc-fpga", Kind: device.FPGA, Node: node,
			DieArea: units.MM2(200), PeakPower: units.Watts(10),
			CapacityGates: 1e9,
		},
		DutyCycle:    0.3,
		ChipLifetime: units.YearsOf(15),
	}
	return fpga, asic
}

// cumulative builds the curve of n back-to-back applications of the
// given lifetime and volume on p.
func cumulative(t *testing.T, p Platform, n int, lifetime, volume float64, samples int) CumulativeCurve {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Cumulative(backToBack(n, lifetime, volume), samples)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// backToBack is one run of n applications from t=0.
func backToBack(n int, lifetime, volume float64) Schedule {
	return Schedule{Name: "life", Deployments: []Deployment{{
		App:    Application{Name: "life", Lifetime: units.YearsOf(lifetime), Volume: volume},
		Repeat: n,
	}}}
}

// countEvents counts the curve's events of one kind.
func countEvents(res CumulativeCurve, kind EventKind) int {
	n := 0
	for _, e := range res.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestFPGAJumpsAtChipLifetime(t *testing.T) {
	fpga, _ := lifePlatforms(t)
	res := cumulative(t, fpga, 45, 1, 1000, 450)
	// Fig. 9: fleet builds at 0, 15 and 30 years.
	var hwTimes []float64
	for _, e := range res.Events {
		if e.Kind == EventHardware {
			hwTimes = append(hwTimes, e.Time.Years())
		}
	}
	want := []float64{0, 15, 30}
	if len(hwTimes) != len(want) {
		t.Fatalf("hardware events at %v, want %v", hwTimes, want)
	}
	for i := range want {
		if hwTimes[i] != want[i] {
			t.Fatalf("hardware events at %v, want %v", hwTimes, want)
		}
	}
	// Exactly one design event: the second generation reuses the design.
	if designs := countEvents(res, EventDesign); designs != 1 {
		t.Errorf("design events: %d, want 1", designs)
	}
	// The curve must jump across the 15-year boundary by at least the
	// fleet cost (hardware step + accrued operation).
	dc, _ := fpga.DeviceCost()
	fleet := dc.Total().Scale(1000)
	before := curveAt(res, 14.9)
	after := curveAt(res, 15.1)
	if after.Kilograms()-before.Kilograms() < fleet.Kilograms() {
		t.Errorf("no rebuy jump: %v -> %v (fleet %v)", before, after, fleet)
	}
}

func TestASICStepsEveryApplication(t *testing.T) {
	_, asic := lifePlatforms(t)
	res := cumulative(t, asic, 10, 1, 1000, 200)
	designs, hw := countEvents(res, EventDesign), countEvents(res, EventHardware)
	if designs != 10 || hw != 10 {
		t.Errorf("ASIC events: %d designs, %d hardware, want 10 each", designs, hw)
	}
	var at float64
	for _, e := range res.Events {
		if e.Kind == EventDesign {
			if e.Time.Years() != at {
				t.Fatalf("ASIC design lands at %v, want its application's start %g", e.Time, at)
			}
			at++
		}
	}
}

func TestCurveIsMonotone(t *testing.T) {
	fpga, asic := lifePlatforms(t)
	for _, p := range []Platform{fpga, asic} {
		res := cumulative(t, p, 30, 1, 500, 200)
		if len(res.Curve) != 201 {
			t.Fatalf("200 samples: %d points", len(res.Curve))
		}
		for i := 1; i < len(res.Curve); i++ {
			if res.Curve[i].Cumulative < res.Curve[i-1].Cumulative {
				t.Fatalf("%s: cumulative CFP decreased at %v", p.Spec.Name, res.Curve[i].Time)
			}
		}
		if res.Total() <= 0 {
			t.Errorf("%s: non-positive total %v", p.Spec.Name, res.Total())
		}
	}
}

func TestConsistentWithScenarioEvaluation(t *testing.T) {
	// Over N back-to-back app lifetimes the curve's last point is
	// core.Evaluate's total, uncapped and capped, for both equations.
	fpga, asic := lifePlatforms(t)
	uncapped := fpga
	uncapped.ChipLifetime = 0
	capped := fpga
	capped.ChipLifetime = units.YearsOf(3)
	cappedASIC := asic
	cappedASIC.ChipLifetime = units.YearsOf(1.5)
	for _, p := range []Platform{uncapped, capped, asic, cappedASIC} {
		res := cumulative(t, p, 5, 2, 1000, 100)
		want, err := Evaluate(p, Uniform("ref", 5, units.YearsOf(2), 1000, 0))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Total().Kilograms()
		ref := want.Total().Kilograms()
		if math.Abs(got-ref) > 1e-12*ref {
			t.Errorf("%s (chip life %v): curve total %g, scenario total %g", p.Spec.Name, p.ChipLifetime, got, ref)
		}
		if gens := countEvents(res, EventHardware); p.Spec.Kind == device.FPGA && gens != want.HardwareGenerations {
			t.Errorf("%s: %d hardware events, want %d generations", p.Spec.Name, gens, want.HardwareGenerations)
		}
	}
}

func TestUncappedFPGABuildsOnce(t *testing.T) {
	fpga, _ := lifePlatforms(t)
	fpga.ChipLifetime = 0
	res := cumulative(t, fpga, 40, 1, 100, 200)
	if hw := countEvents(res, EventHardware); hw != 1 {
		t.Errorf("uncapped FPGA hardware events: %d, want 1", hw)
	}
}

func TestConfigValidation(t *testing.T) {
	fpga, _ := lifePlatforms(t)
	c, err := Compile(fpga)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cumulative(backToBack(5, 1, 10), 1); err != nil {
		t.Errorf("good schedule: %v", err)
	}
	bad := []struct {
		sch     Schedule
		samples int
	}{
		{Schedule{Name: "empty"}, 10},
		{backToBack(5, 0, 10), 10},
		{backToBack(5, 1, 0), 10},
		{backToBack(-1, 1, 10), 10},
		{backToBack(5, 1, 10), 0},
		{backToBack(5, 1, 10), -1},
	}
	for i, b := range bad {
		if _, err := c.Cumulative(b.sch, b.samples); err == nil {
			t.Errorf("case %d: Cumulative should fail", i)
		}
	}
}

// curveAt returns the cumulative value at the sample nearest to t.
func curveAt(r CumulativeCurve, t float64) units.Mass {
	best := r.Curve[0]
	for _, p := range r.Curve {
		if math.Abs(p.Time.Years()-t) < math.Abs(best.Time.Years()-t) {
			best = p
		}
	}
	return best.Cumulative
}
