package core

import (
	"fmt"
	"math"
	"sort"

	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// Deployment is one scheduled application residency: an application
// plus its arrival time on a shared wall-clock timeline. The
// application's Lifetime is its residency duration, so a deployment
// occupies [Start, Start+Lifetime). A run (Repeat k > 1) is k
// back-to-back residencies of the same application from Start, the
// shape of a uniform scenario, evaluated exactly as k separate
// deployments would be.
type Deployment struct {
	// App is the deployed workload (name, lifetime, volume, size).
	App Application
	// Start is the arrival offset from the schedule origin.
	Start units.Years
	// Repeat is the run length: how many copies of App run back to
	// back from Start, each arriving the instant the previous one
	// retires. 0 and 1 both mean one residency; negative is invalid.
	Repeat int
}

// copies is the number of residencies the deployment runs.
func (d *Deployment) copies() int { return max(1, d.Repeat) }

// End is the deployment's retirement time: that of its last copy,
// the lifetime added to Start once per copy — the rounding BackToBack
// gives the same copies placed as separate deployments.
func (d Deployment) End() units.Years {
	at := d.Start.Years()
	for range d.copies() {
		at += d.App.Lifetime.Years()
	}
	return units.YearsOf(at)
}

// Validate checks the deployment.
func (d Deployment) Validate() error { return d.validate() }

// validate is Validate in place, so Schedule.Validate checks each
// deployment without copying it.
func (d *Deployment) validate() error {
	if d.Start.Years() < 0 {
		return fmt.Errorf("core: deployment %q starts at negative time %v", d.App.Name, d.Start)
	}
	if d.Repeat < 0 {
		return fmt.Errorf("core: deployment %q repeats a negative %d times", d.App.Name, d.Repeat)
	}
	return d.App.validate()
}

// FleetSizing selects how overlapping residents of a reusable fleet
// (FPGA, GPU, CPU) are provisioned. Non-reusable kinds (ASICs) always
// manufacture per deployment, so sizing does not apply to them.
type FleetSizing string

const (
	// SizeShared (the default) sizes the fleet to the largest resident
	// deployment: overlapping applications time-share reconfigured
	// devices, the reading behind the paper's Eq. 2 fleet (N_vol
	// devices serve every application of the scenario). Evaluate runs
	// a Scenario's Sequential schedule under this sizing.
	SizeShared FleetSizing = "shared"
	// SizeDedicated sizes the fleet to the peak aggregate device
	// demand: every resident holds its own devices for its whole
	// residency, so overlap multiplies the fleet.
	SizeDedicated FleetSizing = "dedicated"
)

// Validate checks the sizing selector ("" means SizeShared).
func (fs FleetSizing) Validate() error {
	switch fs {
	case "", SizeShared, SizeDedicated:
		return nil
	}
	return fmt.Errorf("core: unknown fleet sizing %q (shared, dedicated)", fs)
}

// Schedule is a time-phased deployment plan: applications arriving,
// retiring and overlapping on one wall-clock timeline — the
// generalization of Scenario, whose applications run strictly back to
// back from t=0. Hardware refresh follows the platform's ChipLifetime
// against the schedule's wall-clock span (a fleet generation ages by
// calendar time); a back-to-back schedule spans the sum of its
// application lifetimes.
type Schedule struct {
	// Name labels the schedule in reports.
	Name string
	// Deployments is the timeline; order is preserved in reports, and
	// deployments may overlap or leave gaps freely.
	Deployments []Deployment
	// Sizing selects shared (default) or dedicated fleet provisioning
	// for reusable platforms.
	Sizing FleetSizing
	// StrictEq2 applies the paper's Eq. 2 literally, as in Scenario.
	StrictEq2 bool
}

// Validate checks the schedule.
func (sch Schedule) Validate() error {
	if len(sch.Deployments) == 0 {
		return fmt.Errorf("core: schedule %q has no deployments", sch.Name)
	}
	if err := sch.Sizing.Validate(); err != nil {
		return err
	}
	for i := range sch.Deployments {
		if err := sch.Deployments[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// Span is the wall-clock extent of the schedule: from the first
// arrival to the last retirement. The empty schedule spans zero.
func (sch Schedule) Span() units.Years {
	if len(sch.Deployments) == 0 {
		return 0
	}
	minStart := math.Inf(1)
	maxEnd := math.Inf(-1)
	for i := range sch.Deployments {
		d := &sch.Deployments[i]
		minStart = math.Min(minStart, d.Start.Years())
		maxEnd = math.Max(maxEnd, d.End().Years())
	}
	return units.YearsOf(maxEnd - minStart)
}

// PeakConcurrent is the largest number of simultaneously-resident
// deployments. Residencies are half-open [start, end): a deployment
// retiring exactly when another arrives does not overlap it, so the
// copies of a run never overlap each other.
func (sch Schedule) PeakConcurrent() int {
	peak, _, _ := sch.peaks(nil)
	return peak
}

// residencies counts the schedule's residencies, every copy of a run
// counted.
func (sch *Schedule) residencies() int {
	var n int
	for i := range sch.Deployments {
		n += sch.Deployments[i].copies()
	}
	return n
}

// peaks sweeps the arrival/retirement events once, returning the peak
// resident-deployment count and, when spec is non-nil, the peak
// aggregate device demand on it: each deployment needs
// Volume x spec.Required(SizeGates) devices. A run contributes the
// events of each copy, so its demand is retired and re-added at every
// copy boundary exactly as for separate deployments.
func (sch Schedule) peaks(spec *device.Spec) (int, float64, error) {
	type event struct {
		t     float64
		start bool
		d     float64
	}
	events := make([]event, 0, 2*sch.residencies())
	for i := range sch.Deployments {
		dep := &sch.Deployments[i]
		var dev float64
		if spec != nil {
			n, err := spec.Required(dep.App.SizeGates)
			if err != nil {
				return 0, 0, err
			}
			dev = dep.App.Volume * float64(n)
		}
		at := dep.Start.Years()
		for range dep.copies() {
			end := at + dep.App.Lifetime.Years()
			events = append(events,
				event{t: at, start: true, d: dev},
				event{t: end, start: false, d: dev})
			at = end
		}
	}
	// Retirements sort before arrivals at equal times (half-open
	// residencies: an end at t frees the fleet for a start at t).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return !events[i].start && events[j].start
	})
	var cur, peak int
	var curD, peakD float64
	for _, e := range events {
		if e.start {
			cur++
			curD += e.d
			if cur > peak {
				peak = cur
			}
			if curD > peakD {
				peakD = curD
			}
		} else {
			cur--
			curD -= e.d
		}
	}
	return peak, peakD, nil
}

// Sequential serializes a Scenario onto the timeline back to back
// (see BackToBack), the semantics of the paper's Eqs. 1-2. Evaluate
// is EvaluateSchedule's loop on this schedule.
func Sequential(s Scenario) Schedule {
	sch := Schedule{Name: s.Name, Deployments: make([]Deployment, len(s.Apps)), StrictEq2: s.StrictEq2}
	for i, app := range s.Apps {
		sch.Deployments[i].App = app
	}
	sch.BackToBack()
	return sch
}

// BackToBack re-times the deployments in place to run back to back in
// slice order from t=0: each starts the instant the previous one (the
// last copy of a run) retires.
func (sch Schedule) BackToBack() {
	var at units.Years
	for i := range sch.Deployments {
		sch.Deployments[i].Start = at
		at = sch.Deployments[i].End()
	}
}

// Staggered builds a schedule of n identical applications arriving
// every interval years (interval 0 means all arrive at t=0), the
// timeline generalization of Uniform. Applications are named like
// Uniform's so degenerate schedules compare bit-for-bit against
// Evaluate on Uniform.
func Staggered(name string, n int, interval, lifetime units.Years, volume, sizeGates float64) Schedule {
	if n < 0 {
		n = 0
	}
	sch := Schedule{Name: name, Deployments: make([]Deployment, n)}
	for i := range sch.Deployments {
		sch.Deployments[i] = Deployment{
			App: Application{
				Name:      fmt.Sprintf("%s-app%d", name, i+1),
				Lifetime:  lifetime,
				Volume:    volume,
				SizeGates: sizeGates,
			},
			Start: units.YearsOf(float64(i) * interval.Years()),
		}
	}
	return sch
}

// ScheduleAssessment is an Assessment plus the timeline quantities
// that a Scenario's Assessment does not report.
type ScheduleAssessment struct {
	Assessment
	// Span is the schedule's wall-clock extent (first arrival to last
	// retirement), the time base of hardware refresh.
	Span units.Years
	// PeakConcurrent counts the most simultaneously-resident
	// deployments.
	PeakConcurrent int
	// PeakDemand is the peak aggregate device demand across resident
	// deployments, in devices (reflecting this platform's per-kind
	// ganging). Under SizeDedicated it equals FleetSize; under
	// SizeShared it reports how much demand the shared fleet absorbs.
	PeakDemand float64
}

// EvaluateSchedule computes the total CFP of running the time-phased
// schedule on the compiled platform.
//
// Non-reusable kinds (Eq. 1) pay design, hardware and deployment per
// deployment; arrival times do not change their totals (each
// deployment's hardware lives and dies with it).
//
// Reusable kinds (Eq. 2) build one fleet serving every resident
// deployment — sized by the schedule's FleetSizing — and refresh it
// every ChipLifetime years of wall-clock span. Evaluate is this
// evaluation of the Sequential schedule; overlapping deployments
// compress the span (fewer refreshes), and gaps or late arrivals
// stretch it.
func (c *Compiled) EvaluateSchedule(sch Schedule) (ScheduleAssessment, error) {
	if err := sch.Validate(); err != nil {
		return ScheduleAssessment{}, err
	}
	out := ScheduleAssessment{Span: sch.Span()}
	var err error
	if out.PeakConcurrent, out.PeakDemand, err = sch.peaks(&c.prep.platform.Spec); err != nil {
		return ScheduleAssessment{}, err
	}
	if err = c.prep.evaluate(&sch, &c.terms, true, &out.Assessment); err != nil {
		return ScheduleAssessment{}, err
	}
	return out, nil
}

// evaluate is the one Eq. 1/Eq. 2 loop, behind Compiled.Evaluate,
// Compiled.EvaluateSchedule and Prepared.EvaluateTotals: it evaluates
// the valid schedule on the prepared platform with the scalar terms t
// into out, which must be the zero Assessment, adding each
// residency's contribution to out.Breakdown field by field; perApp
// selects whether it also records the per-residency contributions.
// A run's copy contribution is computed once and added once per copy
// (traced platforms re-probe each copy's window), so a run totals bit
// for bit what its copies would as separate deployments. Only a
// SizeDedicated schedule allocates beyond PerApp, for its peak-demand
// sweep.
func (pp *Prepared) evaluate(sch *Schedule, t *terms, perApp bool, out *Assessment) error {
	p := &pp.platform
	out.Platform, out.Kind, out.HardwareGenerations = p.Spec.Name, p.Spec.Kind, 1
	if perApp {
		out.PerApp = make([]AppAssessment, 0, sch.residencies())
	}

	reusable := p.Spec.Kind.Policy().Reusable
	if reusable {
		// Eq. 2: a reusable fleet (FPGA, GPU, CPU) is built once per
		// hardware generation and reconfigured or reprogrammed across
		// deployments. A shared fleet covers the largest single
		// deployment (the paper's Eq. 2 fleet), folded in deployment
		// order; a dedicated one covers the peak aggregate demand.
		var fleet float64
		if sch.Sizing == SizeDedicated {
			var err error
			if _, fleet, err = sch.peaks(&p.Spec); err != nil {
				return err
			}
		} else {
			for i := range sch.Deployments {
				app := &sch.Deployments[i].App
				n, err := p.Spec.Required(app.SizeGates)
				if err != nil {
					return err
				}
				fleet = math.Max(fleet, app.Volume*float64(n))
			}
		}
		gens := 1
		if p.ChipLifetime > 0 {
			// Only a capped fleet needs the span.
			gens = generations(sch.Span(), p.ChipLifetime)
		}
		out.FleetSize = fleet
		out.HardwareGenerations = gens
		out.DevicesManufactured = fleet * float64(gens)
		out.Breakdown.Design += t.design
		t.addHardware(&out.Breakdown, fleet*float64(gens))
	}

	for i := range sch.Deployments {
		dep := &sch.Deployments[i]
		n, err := p.Spec.Required(dep.App.SizeGates)
		if err != nil {
			return err
		}
		devices := dep.App.Volume * float64(n)
		// c is one copy's contribution.
		var c Breakdown
		t.addApp(&c, &dep.App, devices, sch.StrictEq2, dep.Start.Years())
		var copyMade float64
		if !reusable {
			// Eq. 1: every deployment pays design + hardware, its
			// hardware generation count following its own lifetime.
			copyMade = devices * float64(generations(dep.App.Lifetime, p.ChipLifetime))
			c.Design += t.design
			t.addHardware(&c, copyMade)
			out.FleetSize = math.Max(out.FleetSize, devices)
		}
		// Copy by copy: each copy gets its own PerApp entry, and a
		// traced copy is re-priced at its own window for its operation,
		// the one term that depends on where it sits.
		at := dep.Start.Years()
		for j := range dep.copies() {
			if j > 0 && t.traced() {
				var w Breakdown
				t.addApp(&w, &dep.App, devices, sch.StrictEq2, at)
				c.Operation = w.Operation
			}
			if perApp {
				out.PerApp = append(out.PerApp, AppAssessment{Name: dep.App.Name, DevicesPerUnit: n, Breakdown: c})
			}
			out.Breakdown.add(&c)
			if !reusable {
				out.DevicesManufactured += copyMade
			}
			at += dep.App.Lifetime.Years()
		}
	}
	return nil
}

// generations is the hardware generation count of hardware in service
// for span years under a chip-lifetime cap (zero means uncapped): one,
// or ceil(span/chipLifetime) once the span outlives the chip.
func generations(span, chipLifetime units.Years) int {
	if chipLifetime > 0 && span > chipLifetime {
		return int(math.Ceil(span.Years() / chipLifetime.Years()))
	}
	return 1
}

// ScheduleComparison is the outcome of evaluating every platform of a
// compiled set on one shared schedule.
type ScheduleComparison struct {
	// Assessments holds one schedule assessment per set platform, in
	// set order.
	Assessments []ScheduleAssessment
	// Ratios holds the pairwise total-CFP ratios, as in SetComparison.
	Ratios [][]float64
	// Winner indexes the minimum-total assessment.
	Winner int
	// Span and PeakConcurrent are schedule-wide (platform-independent);
	// per-platform device demand lives on each assessment.
	Span           units.Years
	PeakConcurrent int
}

// WinnerAssessment returns the minimum-CFP assessment.
func (sc ScheduleComparison) WinnerAssessment() ScheduleAssessment {
	return sc.Assessments[sc.Winner]
}

// CompareSchedule evaluates every platform of the set on the schedule.
func (cs CompiledSet) CompareSchedule(sch Schedule) (ScheduleComparison, error) {
	out := ScheduleComparison{Assessments: make([]ScheduleAssessment, len(cs))}
	sc, err := cs.compare(func(i int, c *Compiled) (Assessment, error) {
		a, err := c.EvaluateSchedule(sch)
		out.Assessments[i] = a
		return a.Assessment, err
	})
	if err != nil {
		return ScheduleComparison{}, err
	}
	out.Ratios, out.Winner = sc.Ratios, sc.Winner
	out.Span = out.Assessments[0].Span
	out.PeakConcurrent = out.Assessments[0].PeakConcurrent
	return out, nil
}
