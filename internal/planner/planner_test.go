package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
)

// pair builds a planner-friendly platform pair: the FPGA carries 2x
// silicon and 2x power of the ASIC template.
func pair(t *testing.T) (fpga, asic core.Platform) {
	t.Helper()
	node, err := technode.ByName("10nm")
	if err != nil {
		t.Fatal(err)
	}
	asic = core.Platform{
		Spec: device.Spec{
			Name: "plan-asic", Kind: device.ASIC, Node: node,
			DieArea: units.MM2(120), PeakPower: units.Watts(2),
		},
		DutyCycle:       0.15,
		DesignEngineers: 300,
		DesignDuration:  units.YearsOf(2),
	}
	fpga = core.Platform{
		Spec: device.Spec{
			Name: "plan-fpga", Kind: device.FPGA, Node: node,
			DieArea: units.MM2(240), PeakPower: units.Watts(4),
			CapacityGates: 1e9,
		},
		DutyCycle:       0.15,
		DesignEngineers: 300,
		DesignDuration:  units.YearsOf(2),
	}
	return fpga, asic
}

// app builds a portfolio application.
func app(name string, years, volume float64) core.Application {
	return core.Application{Name: name, Lifetime: units.YearsOf(years), Volume: volume}
}

func TestOptimizeBeatsBothBaselines(t *testing.T) {
	fpga, asic := pair(t)
	// A mixed portfolio: short-lived low-volume apps (FPGA territory)
	// plus a long-lived high-volume app (ASIC territory).
	in := Inputs{
		FPGA: fpga, ASIC: asic,
		Apps: []core.Application{
			app("proto-a", 0.5, 5e3),
			app("proto-b", 0.5, 5e3),
			app("proto-c", 0.75, 1e4),
			app("pilot", 1, 2e4),
			app("mass-market", 5, 2e6),
		},
	}
	plan, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Exact {
		t.Error("five apps should be solved exactly")
	}
	if plan.Total > plan.AllASIC || plan.Total > plan.AllFPGA {
		t.Errorf("optimum %v worse than a baseline (ASIC %v, FPGA %v)",
			plan.Total, plan.AllASIC, plan.AllFPGA)
	}
	if plan.Savings() < 0 {
		t.Errorf("negative savings %v", plan.Savings())
	}
	// The mass-market app must go to the ASIC; the prototypes to the
	// fleet.
	byName := map[string]device.Kind{}
	for _, a := range plan.Assignments {
		byName[a.App] = a.Platform
	}
	if byName["mass-market"] != device.ASIC {
		t.Errorf("mass-market app assigned to %s", byName["mass-market"])
	}
	if byName["proto-a"] != device.FPGA || byName["proto-b"] != device.FPGA {
		t.Errorf("prototypes assigned to %s/%s", byName["proto-a"], byName["proto-b"])
	}
	if plan.FPGAApps() < 3 {
		t.Errorf("expected most prototypes on the fleet, got %d", plan.FPGAApps())
	}
	if plan.FleetEmbodied <= 0 {
		t.Error("fleet embodied carbon should be reported")
	}
}

func TestAllASICWhenFleetNeverPays(t *testing.T) {
	fpga, asic := pair(t)
	// One giant long-lived application: sharing cannot help.
	plan, err := Optimize(Inputs{
		FPGA: fpga, ASIC: asic,
		Apps: []core.Application{app("only", 8, 5e6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.FPGAApps() != 0 {
		t.Errorf("single long-lived app should stay ASIC: %+v", plan.Assignments)
	}
	if plan.FleetEmbodied != 0 {
		t.Errorf("unused fleet must cost nothing, got %v", plan.FleetEmbodied)
	}
	if plan.Total != plan.AllASIC {
		t.Errorf("total %v should equal the all-ASIC baseline %v", plan.Total, plan.AllASIC)
	}
}

func TestAllFPGAWhenASICNeverPays(t *testing.T) {
	fpga, asic := pair(t)
	// Many tiny short-lived apps: per-app ASIC design dominates.
	var apps []core.Application
	for i := 0; i < 8; i++ {
		apps = append(apps, app(fmt.Sprintf("burst-%d", i), 0.25, 1e3))
	}
	plan, err := Optimize(Inputs{FPGA: fpga, ASIC: asic, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if plan.FPGAApps() != len(apps) {
		t.Errorf("all apps should ride the fleet, got %d of %d", plan.FPGAApps(), len(apps))
	}
	if plan.Total != plan.AllFPGA {
		t.Errorf("total %v should equal the all-FPGA baseline %v", plan.Total, plan.AllFPGA)
	}
}

func TestGreedyLargePortfolio(t *testing.T) {
	fpga, asic := pair(t)
	var apps []core.Application
	for i := 0; i < 24; i++ {
		years := 0.5 + float64(i%4)
		volume := math.Pow(10, 3+float64(i%4))
		apps = append(apps, app(fmt.Sprintf("app-%02d", i), years, volume))
	}
	plan, err := Optimize(Inputs{FPGA: fpga, ASIC: asic, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Exact {
		t.Error("24 apps should use the greedy path")
	}
	if plan.Total > plan.AllASIC || plan.Total > plan.AllFPGA {
		t.Errorf("greedy plan %v worse than a baseline (ASIC %v, FPGA %v)",
			plan.Total, plan.AllASIC, plan.AllFPGA)
	}
	if len(plan.Assignments) != 24 {
		t.Errorf("assignments: %d", len(plan.Assignments))
	}
}

func TestChipLifetimeRaisesFleetCost(t *testing.T) {
	fpga, asic := pair(t)
	apps := []core.Application{
		app("a", 6, 1e4), app("b", 6, 1e4), app("c", 6, 1e4),
	}
	uncapped, err := Optimize(Inputs{FPGA: fpga, ASIC: asic, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	capped := fpga
	capped.ChipLifetime = units.YearsOf(10) // 18-year span: two generations
	cappedPlan, err := Optimize(Inputs{FPGA: capped, ASIC: asic, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if cappedPlan.AllFPGA <= uncapped.AllFPGA {
		t.Errorf("chip lifetime should raise the all-FPGA cost: %v vs %v",
			cappedPlan.AllFPGA, uncapped.AllFPGA)
	}
}

func TestOptimizeErrors(t *testing.T) {
	fpga, asic := pair(t)
	good := []core.Application{app("x", 1, 100)}
	cases := []Inputs{
		{FPGA: core.Platform{}, ASIC: asic, Apps: good},
		{FPGA: fpga, ASIC: core.Platform{}, Apps: good},
		{FPGA: asic, ASIC: asic, Apps: good}, // wrong kind on the fleet
		{FPGA: fpga, ASIC: fpga, Apps: good}, // wrong kind on dedicated
		{FPGA: fpga, ASIC: asic},             // empty portfolio
		{FPGA: fpga, ASIC: asic, Apps: []core.Application{app("bad", 0, 10)}},
		{FPGA: fpga, ASIC: asic, Apps: make([]core.Application, MaxPortfolio+1)},
	}
	for i, in := range cases {
		if _, err := Optimize(in); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: for exact-solved portfolios the optimum never exceeds any
// of a sample of random assignments.
func TestQuickExactIsOptimal(t *testing.T) {
	fpga, asic := pair(t)
	apps := []core.Application{
		app("a", 0.5, 2e3), app("b", 1, 2e4), app("c", 2, 2e5), app("d", 4, 2e6),
	}
	in := Inputs{FPGA: fpga, ASIC: asic, Apps: apps}
	plan, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := newCostTable(in)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawMask uint8) bool {
		mask := uint64(rawMask) & costs.fullMask()
		return costs.totalFor(mask) >= plan.Total.Kilograms()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickScoresMatchLoop pins the precomputed cost table to the one
// Eq. 1/Eq. 2 loop: for random portfolios of 1 to 8 applications, half
// on a capped FPGA, every score the plan reports (Total, AllFPGA,
// AllASIC) equals its FPGA subset evaluated as one Sequential schedule
// plus each ASIC application evaluated alone, within 1e-12 relative.
func TestQuickScoresMatchLoop(t *testing.T) {
	fpga, asic := pair(t)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := Inputs{FPGA: fpga, ASIC: asic, StrictEq2: r.Intn(4) == 0}
		if r.Intn(2) == 0 {
			in.FPGA.ChipLifetime = units.YearsOf(0.5 + 5*r.Float64())
		}
		for i := range 1 + r.Intn(8) {
			a := app(fmt.Sprintf("q%d", i), 0.25+3*r.Float64(), math.Pow(10, 2+5*r.Float64()))
			if r.Intn(3) == 0 {
				a.SizeGates = 3e9 * r.Float64()
			}
			in.Apps = append(in.Apps, a)
		}
		plan, err := Optimize(in)
		if err != nil {
			t.Fatal(err)
		}
		var best uint64
		for i, a := range plan.Assignments {
			if a.Platform == device.FPGA {
				best |= 1 << i
			}
		}
		full := uint64(1)<<len(in.Apps) - 1
		for _, m := range []struct {
			name  string
			mask  uint64
			score units.Mass
		}{{"Total", best, plan.Total}, {"AllFPGA", full, plan.AllFPGA}, {"AllASIC", 0, plan.AllASIC}} {
			want := loopScore(t, in, m.mask)
			if math.Abs(float64(m.score-want)) > 1e-12*math.Abs(float64(want)) {
				t.Errorf("seed %d: %s (mask %b) scores %v, the loop %v", seed, m.name, m.mask, m.score, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// loopScore evaluates an assignment mask through the core loop: the
// FPGA applications as one back-to-back schedule on the shared fleet,
// each ASIC application alone.
func loopScore(t *testing.T, in Inputs, mask uint64) units.Mass {
	t.Helper()
	var total units.Mass
	fleet := core.Scenario{Name: "fleet", StrictEq2: in.StrictEq2}
	for i, a := range in.Apps {
		if mask&(1<<i) != 0 {
			fleet.Apps = append(fleet.Apps, a)
			continue
		}
		res, err := core.Evaluate(in.ASIC, core.Scenario{Name: a.Name, Apps: []core.Application{a}, StrictEq2: in.StrictEq2})
		if err != nil {
			t.Fatal(err)
		}
		total += res.Total()
	}
	if len(fleet.Apps) > 0 {
		c, err := core.Compile(in.FPGA)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.EvaluateSchedule(core.Sequential(fleet))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Total()
	}
	return total
}
