package core

import (
	"fmt"

	"greenfpga/internal/units"
)

// Compiled is a Platform whose expensive, platform-constant quantities
// have been evaluated once and cached: the prepared draw-invariant
// quantities (see Prepared) and the terms its own knobs give — the
// per-device embodied cost, the design-phase CFP, the annual
// per-device operation carbon, and the per-application and
// per-configuration app-development CFP. Evaluate re-derives all of
// them on every call; a Compiled platform pays for them once, which
// is the whole constant factor of the paper's dense sweeps (Figs.
// 4-11 are thousands of evaluations of the same two platforms).
//
// A Compiled platform is immutable after Compile and safe for
// concurrent use.
type Compiled struct {
	prep Prepared
	terms
	deviceCost DeviceCost
}

// Compile validates the platform and caches its prepared quantities
// and the terms Evaluate would otherwise re-derive per call.
func Compile(p Platform) (*Compiled, error) {
	c := new(Compiled)
	if err := compile(p, c); err != nil {
		return nil, err
	}
	return c, nil
}

// compile is Compile into caller-owned storage, so the package-level
// Evaluate keeps the Compiled on its stack. It runs both stages: the
// draw-invariant prepare, then the knob stage at the platform's own
// knobs.
func compile(p Platform, c *Compiled) error {
	if err := c.prep.prepare(p); err != nil {
		return err
	}
	dc, err := c.prep.derive(c.prep.Knobs(), &c.terms)
	if err != nil {
		return err
	}
	c.deviceCost = dc
	return nil
}

// Platform returns the compiled platform inputs.
func (c *Compiled) Platform() Platform { return c.prep.platform }

// Prepared returns the compiled platform's draw-invariant stage,
// shared with c and, like it, immutable.
func (c *Compiled) Prepared() *Prepared { return &c.prep }

// DeviceCost returns the cached per-device embodied cost.
func (c *Compiled) DeviceCost() DeviceCost { return c.deviceCost }

// DesignCFP returns the cached design-phase CFP (Eq. 4).
func (c *Compiled) DesignCFP() units.Mass { return c.design }

// Evaluate computes the total CFP of running the scenario on the
// compiled platform, selecting Eq. 1 or Eq. 2 by the device kind's
// reuse policy (Eq. 1 for per-application embodied carbon, Eq. 2 for
// reusable fleets). A scenario is its Sequential schedule: Evaluate
// validates s and runs EvaluateSchedule's loop on Sequential(s).
// Results are identical to Evaluate on the uncompiled platform.
func (c *Compiled) Evaluate(s Scenario) (Assessment, error) {
	if err := s.Validate(); err != nil {
		return Assessment{}, err
	}
	sch := Sequential(s)
	var out Assessment
	err := c.prep.evaluate(&sch, &c.terms, true, &out)
	return out, err
}

// EvaluateUniform computes the assessment of a uniform scenario — n
// identical applications of the given lifetime, volume and size, the
// shape of experiments A-C (Figs. 4-8) and every crossover probe — in
// O(1): no []Application is built, no per-application names are
// formatted, and no per-application loop runs. (Platforms with a
// ChipLifetime cap pay one O(n) scalar summation to reproduce
// generation boundaries exactly; see below.)
//
// The returned assessment matches Evaluate on Uniform(name, n, ...)
// with two documented differences: PerApp is nil (all n entries would
// be identical — the totals carry the same information), and totals
// are computed by scaling the shared per-application contribution by n
// rather than adding it n times, which can differ from the loop in the
// last floating-point ulp. Uniform scenarios built by Uniform use the
// default (non-strict) Eq. 2 accounting, as does this path.
func (c *Compiled) EvaluateUniform(n int, lifetime units.Years, volume, sizeGates float64) (Assessment, error) {
	if n < 1 {
		return Assessment{}, fmt.Errorf("core: uniform scenario needs n >= 1, got %d", n)
	}
	if err := (Application{Name: "uniform", Lifetime: lifetime, Volume: volume, SizeGates: sizeGates}).Validate(); err != nil {
		return Assessment{}, err
	}

	p := &c.prep.platform
	perUnit, err := p.Spec.Required(sizeGates)
	if err != nil {
		return Assessment{}, err
	}
	devices := volume * float64(perUnit)
	out := Assessment{
		Platform:            p.Spec.Name,
		Kind:                p.Spec.Kind,
		HardwareGenerations: 1,
	}
	app := Application{Lifetime: lifetime, Volume: volume, SizeGates: sizeGates}

	if !p.Spec.Kind.Policy().Reusable {
		gens := generations(lifetime, p.ChipLifetime)
		var b Breakdown
		c.addApp(&b, &app, devices, false, 0)
		b.Design = c.design
		c.addHardware(&b, devices*float64(gens))
		out.Breakdown = b.Scale(float64(n))
		if c.traced() {
			out.Breakdown.Operation = c.uniformOperation(n, lifetime, devices*app.utilization())
		}
		out.DevicesManufactured = devices * float64(gens) * float64(n)
		out.FleetSize = devices
		return out, nil
	}

	gens := 1
	if p.ChipLifetime > 0 {
		// Span the n applications as the run of them does, the
		// lifetime summed n times: multiplication rounds differently
		// at generation boundaries (0.7*10 is exactly 7, ten summed
		// 0.7s exceed it), and a flip here is a whole hardware
		// generation, not an ulp. Capped platforms pay this O(n)
		// scalar loop; the common uncapped case stays O(1).
		gens = generations(Deployment{App: app, Repeat: n}.End(), p.ChipLifetime)
	}
	out.FleetSize = devices
	out.HardwareGenerations = gens
	out.DevicesManufactured = devices * float64(gens)
	var b Breakdown
	c.addApp(&b, &app, devices, false, 0)
	out.Breakdown = b.Scale(float64(n))
	if c.traced() {
		out.Breakdown.Operation = c.uniformOperation(n, lifetime, devices*app.utilization())
	}
	out.Breakdown.Design = c.design
	c.addHardware(&out.Breakdown, devices*float64(gens))
	return out, nil
}

// uniformOperation sums the traced operational carbon of n identical
// back-to-back residency windows, accumulating arrival offsets exactly
// like Sequential so the O(1)-shaped uniform path and the
// per-application loop agree on traced platforms. scale carries
// devices x utilization. Only traced platforms pay this O(n) loop —
// on the scalar path the n windows are identical and EvaluateUniform
// multiplies instead.
func (c *Compiled) uniformOperation(n int, lifetime units.Years, scale float64) units.Mass {
	var at float64
	var op units.Mass
	for i := 0; i < n; i++ {
		op += c.opWindow(at, lifetime.Years())
		at += lifetime.Years()
	}
	return op.Scale(scale)
}

// UniformTotal is the total CFP of EvaluateUniform, for callers that
// only probe totals (the crossover solvers).
func (c *Compiled) UniformTotal(n int, lifetime units.Years, volume, sizeGates float64) (units.Mass, error) {
	a, err := c.EvaluateUniform(n, lifetime, volume, sizeGates)
	if err != nil {
		return 0, err
	}
	return a.Total(), nil
}
