package core

import (
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/deploy"
	"greenfpga/internal/units"
)

// Knobs are the platform inputs the paper's Table 1 uncertainty study
// (§5) draws: the deployment duty cycle, the design staffing N_emp,des
// (Eq. 4), the recycled-material fraction rho (Eq. 5), the EOL recycle
// fraction delta (Eq. 6) and the application front- and back-end
// times T_FE and T_BE (Eq. 7). Every other platform input is
// draw-invariant, and Prepare evaluates what depends on it once.
type Knobs struct {
	// DutyCycle is Platform.DutyCycle.
	DutyCycle float64
	// DesignEngineers is Platform.DesignEngineers; zero means
	// DefaultDesignEngineers.
	DesignEngineers float64
	// RecycledMaterialFraction is Platform.RecycledMaterialFraction.
	RecycledMaterialFraction float64
	// EOLRecycleFraction is Platform.EOL.RecycleFraction.
	EOLRecycleFraction float64
	// FrontEnd and BackEnd are the FrontEnd and BackEnd of the
	// platform's application-development profile.
	FrontEnd, BackEnd units.Years
}

// validate makes Platform.Validate's checks of the knobs; the leaf
// models check rho, delta and the development times themselves.
func (k Knobs) validate() error {
	if k.DutyCycle < 0 || k.DutyCycle > 1 {
		return fmt.Errorf("core: duty cycle %g outside [0,1]", k.DutyCycle)
	}
	if k.DesignEngineers < 0 {
		return fmt.Errorf("core: negative design staffing %g", k.DesignEngineers)
	}
	return nil
}

// Prepared is a validated Platform with its draw-invariant quantities
// evaluated: every grid-intensity lookup, the die yield and effective
// area with the fab energy and gas carbon, the package, the device
// mass, the design house's carbon per employee-year, the resolved
// application-development profile and the trace integrator. What is
// left are the Knobs, from which EvaluateTotals derives the scalar
// terms of the Eq. 1/Eq. 2 loop per call — the Monte-Carlo draw, whose
// platform differs from the last one only in its knobs.
//
// A Prepared platform is immutable after Prepare and safe for
// concurrent use.
type Prepared struct {
	platform Platform

	device preparedDevice
	design preparedDesign

	op   deploy.OperationProfile
	opCI units.CarbonIntensity

	appDev deploy.AppDev
	devCI  units.CarbonIntensity

	// integ integrates the hourly use-phase signal; nil keeps
	// operation on the scalar path.
	integ *carbon.Integrator
}

// Prepare validates the platform and evaluates its draw-invariant
// quantities.
func Prepare(p Platform) (*Prepared, error) {
	pp := new(Prepared)
	if err := pp.prepare(p); err != nil {
		return nil, err
	}
	return pp, nil
}

// prepare is Prepare into caller-owned storage.
func (pp *Prepared) prepare(p Platform) error {
	if err := p.Validate(); err != nil {
		return err
	}
	*pp = Prepared{platform: p}
	q := &pp.platform
	if err := pp.device.prepare(q); err != nil {
		return err
	}
	if err := pp.design.prepare(q); err != nil {
		return err
	}
	var err error
	pp.op = q.operation()
	if pp.opCI, err = pp.op.Intensity(); err != nil {
		return err
	}
	pp.appDev = q.appDev()
	if pp.devCI, err = pp.appDev.Intensity(); err != nil {
		return err
	}
	pp.integ = q.UseIntegrator
	if pp.integ == nil && len(q.UseTrace) > 0 {
		if pp.integ, err = carbon.NewIntegrator(q.UseTrace); err != nil {
			return err
		}
	}
	return nil
}

// Knobs returns the prepared platform's own knob settings: the values
// Compile derives the platform's terms from, and the base a draw
// overwrites.
func (pp *Prepared) Knobs() Knobs {
	p := &pp.platform
	return Knobs{
		DutyCycle:                p.DutyCycle,
		DesignEngineers:          p.DesignEngineers,
		RecycledMaterialFraction: p.RecycledMaterialFraction,
		EOLRecycleFraction:       p.EOL.RecycleFraction,
		FrontEnd:                 pp.appDev.FrontEnd,
		BackEnd:                  pp.appDev.BackEnd,
	}
}

// EvaluateTotals evaluates the schedule on the prepared platform with
// knobs k in place of its own. The result is EvaluateSchedule's
// Assessment on the platform with k applied, bit for bit, except that
// PerApp is nil; an out-of-range knob fails with the error Evaluate
// would report. It derives only the terms the knobs move and runs them
// through the one Eq. 1/Eq. 2 loop, allocating nothing unless the
// schedule is SizeDedicated.
func (pp *Prepared) EvaluateTotals(k Knobs, sch Schedule) (Assessment, error) {
	var t terms
	if _, err := pp.derive(k, &t); err != nil {
		return Assessment{}, err
	}
	if err := sch.Validate(); err != nil {
		return Assessment{}, err
	}
	var out Assessment
	err := pp.evaluate(&sch, &t, false, &out)
	return out, err
}

// derive is the knob stage: it validates k and fills t with the
// scalar terms of the Eq. 1/Eq. 2 loop, returning the per-device
// embodied cost the hardware totals were summed from.
func (pp *Prepared) derive(k Knobs, t *terms) (DeviceCost, error) {
	if err := k.validate(); err != nil {
		return DeviceCost{}, err
	}
	dc, err := pp.device.cost(k.RecycledMaterialFraction, k.EOLRecycleFraction)
	if err != nil {
		return DeviceCost{}, err
	}
	des, err := pp.design.cfp(k.DesignEngineers)
	if err != nil {
		return DeviceCost{}, err
	}
	op := pp.op
	op.DutyCycle = k.DutyCycle
	opAnnual, err := op.AnnualCarbonAt(pp.opCI)
	if err != nil {
		return DeviceCost{}, err
	}
	ad := pp.appDev
	ad.FrontEnd, ad.BackEnd = k.FrontEnd, k.BackEnd
	perApp, err := ad.PerApplicationAt(pp.devCI)
	if err != nil {
		return DeviceCost{}, err
	}
	perCfg, err := ad.PerConfigurationAt(pp.devCI)
	if err != nil {
		return DeviceCost{}, err
	}
	*t = terms{
		design:   des,
		opAnnual: opAnnual,
		perApp:   perApp,
		perCfg:   perCfg,
		mfgTotal: dc.Manufacturing.Total(),
		pkgTotal: dc.Packaging.Total(),
		eolNet:   dc.EOL.Net(),
	}
	if pp.integ != nil {
		if err := t.trace(pp, k.DutyCycle); err != nil {
			return DeviceCost{}, err
		}
	}
	return dc, nil
}

// terms are the scalar inputs of the Eq. 1/Eq. 2 loop: the design-phase
// CFP, the annual per-device operation carbon, the per-application and
// per-configuration app-development CFP, the per-device hardware totals
// (pre-summed so the loop scales three scalars instead of re-summing
// the fab/packaging/EOL sub-results per application) and the traced
// operational state.
type terms struct {
	design   units.Mass
	opAnnual units.Mass
	perApp   units.Mass
	perCfg   units.Mass

	mfgTotal units.Mass
	pkgTotal units.Mass
	eolNet   units.Mass

	// op is the hour-by-hour operational state of a platform sited on
	// an hourly intensity signal; its zero value (integ nil) keeps
	// every evaluation on the legacy scalar path, byte-for-byte.
	op tracedOp
}

// tracedOp is a platform's hour-by-hour operational state: the trace
// integrator (shared, cached per region) plus the device's constant
// hourly energy draws, so each deployment window costs two O(1)
// antiderivative probes.
type tracedOp struct {
	// integ integrates the intensity signal.
	integ *carbon.Integrator
	// hourly is the duty-scaled energy drawn per hour (kWh), the
	// multiplier for uniform (unshifted) operation.
	hourly float64
	// shift, when non-nil, replaces uniform operation with the daily
	// clean-hours packing, and peakHourly (kWh per run-hour, duty
	// folded into the packed hours) replaces hourly.
	shift      *carbon.ShiftProfile
	peakHourly float64
}

// traced reports whether operation integrates an hourly signal.
func (t *terms) traced() bool { return t.op.integ != nil }

// trace derives the traced operational state at the given duty cycle
// and re-anchors opAnnual to the first trace year, so the "annual
// operation" term reports the signal-integrated figure.
func (t *terms) trace(pp *Prepared, duty float64) error {
	p := &pp.platform
	pue := p.PUE
	if pue == 0 {
		pue = 1
	}
	t.op = tracedOp{
		integ:  pp.integ,
		hourly: p.Spec.PeakPower.Scale(duty * pue).OverHours(1).KWh(),
	}
	// A zero duty cycle draws nothing; shifting nothing is nothing.
	if p.UseShift == carbon.ShiftDaily && duty > 0 {
		sp, err := pp.integ.Shift(duty * 24)
		if err != nil {
			return err
		}
		t.op.shift = sp
		t.op.peakHourly = p.Spec.PeakPower.Scale(pue).OverHours(1).KWh()
	}
	t.opAnnual = t.opWindow(0, 1)
	return nil
}

// opWindow is the operational carbon of one device over the
// wall-clock window [start, start+span) years under the traced state.
func (t *terms) opWindow(startYears, spanYears float64) units.Mass {
	if t.op.shift != nil {
		return units.Mass(t.op.peakHourly * t.op.shift.Window(startYears*units.HoursPerYear, spanYears*units.HoursPerYear))
	}
	return units.Mass(t.op.hourly * t.op.integ.Window(startYears*units.HoursPerYear, spanYears*units.HoursPerYear))
}

// addHardware spreads devices' worth of per-device embodied cost into
// the breakdown.
func (t *terms) addHardware(b *Breakdown, devices float64) {
	b.Manufacturing += t.mfgTotal.Scale(devices)
	b.Packaging += t.pkgTotal.Scale(devices)
	b.EOL += t.eolNet.Scale(devices)
}

// addApp adds one application's deployment contribution (operation
// + app development + configuration), shared by both equations, into
// b. startYears places the residency window [start, start+Lifetime) on
// the wall clock; it only matters on traced platforms — the scalar
// path is position-independent and stays the legacy expression
// verbatim, which is what keeps scalar regions bit-for-bit stable.
func (t *terms) addApp(b *Breakdown, app *Application, devices float64, strictEq2 bool, startYears float64) {
	if t.traced() {
		b.Operation += t.opWindow(startYears, app.Lifetime.Years()).Scale(devices * app.utilization())
	} else {
		b.Operation += t.opAnnual.Scale(devices * app.Lifetime.Years() * app.utilization())
	}
	appDevCost := t.perApp
	cfgCost := t.perCfg.Scale(devices)
	if strictEq2 {
		appDevCost = appDevCost.Scale(app.Lifetime.Years())
		cfgCost = cfgCost.Scale(app.Lifetime.Years())
	}
	b.AppDevelopment += appDevCost
	b.Configuration += cfgCost
}
