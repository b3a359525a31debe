// Package planner chooses, per application, whether to serve it from a
// shared reconfigurable FPGA fleet or from a dedicated ASIC, minimizing
// the portfolio's total carbon footprint. It operationalizes the
// paper's conclusion — FPGAs win for low-volume, short-lived,
// numerous applications; ASICs for high-volume long-lived ones — as an
// optimizer over a heterogeneous application portfolio (the
// "sustainability-minded design decisions" §5 anticipates).
//
// The cost structure: applications assigned to the FPGA share one
// fleet, sized by the largest concurrent demand and paid once per
// hardware generation; each ASIC application pays its own design and
// volume. For portfolios up to ExactLimit applications the planner
// enumerates all assignments (the fleet-sizing coupling makes the
// problem non-separable); beyond that it uses a sorted greedy pass
// with local-improvement swaps.
package planner

import (
	"fmt"
	"math"
	"sort"

	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// ExactLimit is the portfolio size up to which all 2^n assignments are
// enumerated.
const ExactLimit = 16

// Inputs describes the planning problem.
type Inputs struct {
	// FPGA is the reconfigurable platform candidate.
	FPGA core.Platform
	// ASIC is the dedicated-silicon template; its die and power stand
	// in for every ASIC build (iso-performance reading: each app's
	// ASIC is comparable silicon).
	ASIC core.Platform
	// Apps is the application portfolio. Order is free; the planner
	// treats lifetimes as concurrent demands (each app keeps the fleet
	// for its own lifetime) and sizes the FPGA fleet by the largest
	// assigned volume x N_FPGA.
	Apps []core.Application
	// StrictEq2 selects the literal Eq. 2 app-dev accounting.
	StrictEq2 bool
}

// Assignment is one application's platform decision.
type Assignment struct {
	// App is the application name.
	App string
	// Platform is the chosen device kind.
	Platform device.Kind
	// Cost is the application's attributed CFP (ASIC: its full Eq. 1
	// term; FPGA: its deployment share — the shared fleet embodied
	// carbon is reported once in Plan.FleetEmbodied).
	Cost units.Mass
}

// Plan is the optimizer's output.
type Plan struct {
	// Assignments lists every application's decision in input order.
	Assignments []Assignment
	// Total is the portfolio CFP.
	Total units.Mass
	// FleetEmbodied is the shared FPGA fleet's embodied carbon (zero
	// when no application is assigned to the FPGA).
	FleetEmbodied units.Mass
	// AllASIC and AllFPGA are the single-platform baselines the
	// optimum is measured against.
	AllASIC, AllFPGA units.Mass
	// Exact reports whether the plan came from full enumeration.
	Exact bool
}

// Savings is the CFP saved versus the better single-platform baseline.
func (p Plan) Savings() units.Mass {
	base := p.AllASIC
	if p.AllFPGA < base {
		base = p.AllFPGA
	}
	return base - p.Total
}

// FPGAApps counts applications assigned to the fleet.
func (p Plan) FPGAApps() int {
	n := 0
	for _, a := range p.Assignments {
		if a.Platform == device.FPGA {
			n++
		}
	}
	return n
}

// Optimize solves the assignment problem.
func Optimize(in Inputs) (Plan, error) {
	if err := in.FPGA.Validate(); err != nil {
		return Plan{}, fmt.Errorf("planner: fpga: %w", err)
	}
	if err := in.ASIC.Validate(); err != nil {
		return Plan{}, fmt.Errorf("planner: asic: %w", err)
	}
	if in.FPGA.Spec.Kind != device.FPGA {
		return Plan{}, fmt.Errorf("planner: fleet platform must be an FPGA, got %s", in.FPGA.Spec.Kind)
	}
	if in.ASIC.Spec.Kind != device.ASIC {
		return Plan{}, fmt.Errorf("planner: dedicated platform must be an ASIC, got %s", in.ASIC.Spec.Kind)
	}
	if len(in.Apps) == 0 {
		return Plan{}, fmt.Errorf("planner: empty portfolio")
	}
	if len(in.Apps) > MaxPortfolio {
		return Plan{}, fmt.Errorf("planner: portfolio of %d exceeds the %d-application limit",
			len(in.Apps), MaxPortfolio)
	}
	for _, a := range in.Apps {
		if err := a.Validate(); err != nil {
			return Plan{}, err
		}
	}

	costs, err := newCostTable(in)
	if err != nil {
		return Plan{}, err
	}

	var best assignment
	exact := len(in.Apps) <= ExactLimit
	if exact {
		best = costs.enumerate()
	} else {
		best = costs.greedy()
	}

	plan := Plan{Exact: exact}
	plan.Total = units.Mass(best.total)
	plan.FleetEmbodied = units.Mass(costs.fleetEmbodied(best.mask))
	for i, app := range in.Apps {
		a := Assignment{App: app.Name, Platform: device.ASIC, Cost: units.Mass(costs.asic[i])}
		if best.mask&(1<<i) != 0 {
			a.Platform = device.FPGA
			a.Cost = units.Mass(costs.fpgaDeploy[i])
		}
		plan.Assignments = append(plan.Assignments, a)
	}
	allASIC := assignment{mask: 0}
	allASIC.total = costs.totalFor(0)
	allFPGA := assignment{mask: costs.fullMask()}
	allFPGA.total = costs.totalFor(costs.fullMask())
	plan.AllASIC = units.Mass(allASIC.total)
	plan.AllFPGA = units.Mass(allFPGA.total)
	return plan, nil
}

// costTable precomputes the per-application costs so assignments can
// be scored in O(n).
type costTable struct {
	// asic[i] is app i's full Eq. 1 cost on a dedicated ASIC.
	asic []float64
	// fpgaDeploy[i] is app i's deployment cost on the fleet
	// (operation + app-dev + configuration), excluding shared embodied.
	fpgaDeploy []float64
	// fleetUnits[i] is app i's device demand (volume x N_FPGA).
	fleetUnits []float64
	// designOnce is the FPGA design CFP (paid once if any app uses it).
	designOnce float64
	// perDevice is the FPGA per-device hardware carbon.
	perDevice float64
	// lifetimes[i] supports chip-lifetime generation counting.
	lifetimes []float64
	// chipLifetime caps one FPGA hardware generation (0: uncapped).
	chipLifetime float64
}

// assignment is a candidate solution: bit i set means app i rides the
// FPGA fleet.
type assignment struct {
	mask  uint64
	total float64
}

// newCostTable compiles both platforms once and evaluates the
// per-application building blocks on them.
func newCostTable(in Inputs) (*costTable, error) {
	fpga, err := core.Compile(in.FPGA)
	if err != nil {
		return nil, err
	}
	asic, err := core.Compile(in.ASIC)
	if err != nil {
		return nil, err
	}
	t := &costTable{
		chipLifetime: in.FPGA.ChipLifetime.Years(),
		perDevice:    fpga.DeviceCost().Total().Kilograms(),
		designOnce:   fpga.DesignCFP().Kilograms(),
	}
	for _, app := range in.Apps {
		single := core.Scenario{Name: app.Name, Apps: []core.Application{app}, StrictEq2: in.StrictEq2}

		asicRes, err := asic.Evaluate(single)
		if err != nil {
			return nil, err
		}
		t.asic = append(t.asic, asicRes.Total().Kilograms())

		fpgaRes, err := fpga.Evaluate(single)
		if err != nil {
			return nil, err
		}
		t.fpgaDeploy = append(t.fpgaDeploy, fpgaRes.Breakdown.Deployment().Kilograms())
		t.fleetUnits = append(t.fleetUnits, fpgaRes.FleetSize)
		t.lifetimes = append(t.lifetimes, app.Lifetime.Years())
	}
	return t, nil
}

// MaxPortfolio bounds the portfolio so assignment masks fit a word.
const MaxPortfolio = 63

// fullMask selects every application.
func (t *costTable) fullMask() uint64 { return (1 << len(t.asic)) - 1 }

// fleetEmbodied is the shared FPGA embodied carbon for a mask.
func (t *costTable) fleetEmbodied(mask uint64) float64 {
	if mask == 0 {
		return 0
	}
	var fleet, span float64
	for i := range t.asic {
		if mask&(1<<i) != 0 {
			fleet = math.Max(fleet, t.fleetUnits[i])
			span += t.lifetimes[i]
		}
	}
	gens := 1.0
	if t.chipLifetime > 0 && span > t.chipLifetime {
		gens = math.Ceil(span / t.chipLifetime)
	}
	return t.designOnce + fleet*gens*t.perDevice
}

// totalFor scores one assignment mask.
func (t *costTable) totalFor(mask uint64) float64 {
	total := t.fleetEmbodied(mask)
	for i := range t.asic {
		if mask&(1<<i) != 0 {
			total += t.fpgaDeploy[i]
		} else {
			total += t.asic[i]
		}
	}
	return total
}

// enumerate scores every assignment (n <= ExactLimit).
func (t *costTable) enumerate() assignment {
	best := assignment{mask: 0, total: t.totalFor(0)}
	for mask := uint64(1); mask <= t.fullMask(); mask++ {
		if total := t.totalFor(mask); total < best.total {
			best = assignment{mask: mask, total: total}
		}
	}
	return best
}

// greedy runs single-flip local improvement from three seeds — the
// all-ASIC mask, the all-FPGA mask, and a constructive pass that
// offers the fleet to applications in descending ASIC-cost order — and
// returns the best local optimum. The two baseline seeds guarantee the
// result never loses to either single-platform portfolio.
func (t *costTable) greedy() assignment {
	order := make([]int, len(t.asic))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.asic[order[a]] > t.asic[order[b]] })

	constructive := assignment{mask: 0, total: t.totalFor(0)}
	for _, i := range order {
		trial := constructive.mask | 1<<i
		if total := t.totalFor(trial); total < constructive.total {
			constructive = assignment{mask: trial, total: total}
		}
	}

	best := assignment{mask: 0, total: math.Inf(1)}
	for _, seed := range []assignment{
		{mask: 0, total: t.totalFor(0)},
		{mask: t.fullMask(), total: t.totalFor(t.fullMask())},
		constructive,
	} {
		cur := seed
		for improved := true; improved; {
			improved = false
			for i := range t.asic {
				trial := cur.mask ^ 1<<i
				if total := t.totalFor(trial); total < cur.total {
					cur = assignment{mask: trial, total: total}
					improved = true
				}
			}
		}
		if cur.total < best.total {
			best = cur
		}
	}
	return best
}
