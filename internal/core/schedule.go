package core

import (
	"fmt"
	"math"
	"sort"

	"greenfpga/internal/units"
)

// Deployment is one scheduled application residency: an application
// plus its arrival time on a shared wall-clock timeline. The
// application's Lifetime is its residency duration, so a deployment
// occupies [Start, Start+Lifetime).
type Deployment struct {
	// App is the deployed workload (name, lifetime, volume, size).
	App Application
	// Start is the arrival offset from the schedule origin.
	Start units.Years
}

// End is the deployment's retirement time.
func (d Deployment) End() units.Years {
	return units.YearsOf(d.Start.Years() + d.App.Lifetime.Years())
}

// Validate checks the deployment.
func (d Deployment) Validate() error {
	if d.Start.Years() < 0 {
		return fmt.Errorf("core: deployment %q starts at negative time %v", d.App.Name, d.Start)
	}
	return d.App.Validate()
}

// FleetSizing selects how overlapping residents of a reusable fleet
// (FPGA, GPU, CPU) are provisioned. Non-reusable kinds (ASICs) always
// manufacture per deployment, so sizing does not apply to them.
type FleetSizing string

const (
	// SizeShared (the default) sizes the fleet to the largest resident
	// deployment: overlapping applications time-share reconfigured
	// devices, the reading behind the paper's Eq. 2 fleet (N_vol
	// devices serve every application of the scenario). Under this
	// sizing a degenerate schedule reduces exactly to the legacy
	// Scenario path.
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
// calendar time), where the legacy path ages the fleet by the sum of
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
	for _, d := range sch.Deployments {
		if err := d.Validate(); err != nil {
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
	for _, d := range sch.Deployments {
		minStart = math.Min(minStart, d.Start.Years())
		maxEnd = math.Max(maxEnd, d.End().Years())
	}
	return units.YearsOf(maxEnd - minStart)
}

// PeakConcurrent is the largest number of simultaneously-resident
// deployments. Residencies are half-open [start, end): a deployment
// retiring exactly when another arrives does not overlap it.
func (sch Schedule) PeakConcurrent() int {
	peak, _ := sch.peaks(nil)
	return peak
}

// peaks sweeps the arrival/retirement events once, returning the peak
// resident-deployment count and, when demand is non-nil (one device
// count per deployment), the peak aggregate device demand.
func (sch Schedule) peaks(demand []float64) (int, float64) {
	type event struct {
		t     float64
		start bool
		d     float64
	}
	events := make([]event, 0, 2*len(sch.Deployments))
	for i, dep := range sch.Deployments {
		var dev float64
		if demand != nil {
			dev = demand[i]
		}
		events = append(events,
			event{t: dep.Start.Years(), start: true, d: dev},
			event{t: dep.End().Years(), start: false, d: dev})
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
	return peak, peakD
}

// Sequential serializes a legacy Scenario onto the timeline: each
// application starts the instant the previous one retires, exactly the
// back-to-back semantics the Scenario engine assumes. Evaluating the
// result reproduces Evaluate(p, s) bit for bit (the equivalence
// property test in schedule_test.go pins this against the frozen
// reference).
func Sequential(s Scenario) Schedule {
	sch := Schedule{Name: s.Name, StrictEq2: s.StrictEq2}
	var at float64
	for _, app := range s.Apps {
		sch.Deployments = append(sch.Deployments, Deployment{App: app, Start: units.YearsOf(at)})
		at += app.Lifetime.Years()
	}
	return sch
}

// Staggered builds a schedule of n identical applications arriving
// every interval years (interval 0 means all arrive at t=0), the
// timeline generalization of Uniform. Applications are named like
// Uniform's so degenerate schedules compare bit-for-bit against the
// legacy path.
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
// that have no legacy counterpart.
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
// deployment's hardware lives and dies with it), so any schedule of
// the same deployments matches the legacy per-application accounting
// bit for bit.
//
// Reusable kinds (Eq. 2) build one fleet serving every resident
// deployment — sized by the schedule's FleetSizing — and refresh it
// every ChipLifetime years of wall-clock span. A schedule whose
// deployments run back to back from t=0 (see Sequential) reduces bit
// for bit to Evaluate; overlapping deployments compress the span
// (fewer refreshes), and gaps or late arrivals stretch it.
func (c *Compiled) EvaluateSchedule(sch Schedule) (ScheduleAssessment, error) {
	if err := sch.Validate(); err != nil {
		return ScheduleAssessment{}, err
	}

	p := &c.prep.platform
	out := ScheduleAssessment{
		Assessment: Assessment{
			Platform:            p.Spec.Name,
			Kind:                p.Spec.Kind,
			HardwareGenerations: 1,
		},
		Span: sch.Span(),
	}

	// Device demand per deployment, computed once for both the sizing
	// sweep and the per-deployment pass.
	counts := make([]int, len(sch.Deployments))
	demand := make([]float64, len(sch.Deployments))
	for i, dep := range sch.Deployments {
		n, err := p.Spec.Required(dep.App.SizeGates)
		if err != nil {
			return ScheduleAssessment{}, err
		}
		counts[i] = n
		demand[i] = dep.App.Volume * float64(n)
	}
	out.PeakConcurrent, out.PeakDemand = sch.peaks(demand)

	if !p.Spec.Kind.Policy().Reusable {
		// Eq. 1: every deployment pays design + hardware + deployment;
		// its hardware generation count follows its own lifetime, as in
		// the legacy per-application loop.
		for i, dep := range sch.Deployments {
			app := dep.App
			devices := demand[i]
			gens := 1
			if p.ChipLifetime > 0 && app.Lifetime > p.ChipLifetime {
				gens = int(math.Ceil(app.Lifetime.Years() / p.ChipLifetime.Years()))
			}
			b := c.appBreakdown(&app, devices, sch.StrictEq2, dep.Start.Years())
			b.Design = c.design
			c.addHardware(&b, devices*float64(gens))
			out.PerApp = append(out.PerApp, AppAssessment{
				Name: app.Name, DevicesPerUnit: counts[i], Breakdown: b,
			})
			out.Breakdown = out.Breakdown.Add(b)
			out.DevicesManufactured += devices * float64(gens)
			out.FleetSize = math.Max(out.FleetSize, devices)
		}
		return out, nil
	}

	// Eq. 2: one reusable fleet serves every resident deployment.
	var fleet float64
	if sch.Sizing == SizeDedicated {
		fleet = out.PeakDemand
	} else {
		// Shared: residents time-share reconfigured devices, so the
		// fleet covers the largest single deployment (the paper's
		// Eq. 2 fleet), folded in deployment order like the legacy
		// path.
		for _, d := range demand {
			fleet = math.Max(fleet, d)
		}
	}
	gens := 1
	if p.ChipLifetime > 0 {
		if span := out.Span.Years(); span > p.ChipLifetime.Years() {
			gens = int(math.Ceil(span / p.ChipLifetime.Years()))
		}
	}
	out.FleetSize = fleet
	out.HardwareGenerations = gens
	out.DevicesManufactured = fleet * float64(gens)
	out.Breakdown.Design = c.design
	c.addHardware(&out.Breakdown, fleet*float64(gens))

	for i, dep := range sch.Deployments {
		b := c.appBreakdown(&dep.App, demand[i], sch.StrictEq2, dep.Start.Years())
		out.PerApp = append(out.PerApp, AppAssessment{
			Name: dep.App.Name, DevicesPerUnit: counts[i], Breakdown: b,
		})
		out.Breakdown = out.Breakdown.Add(b)
	}
	return out, nil
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
	if len(cs) == 0 {
		return ScheduleComparison{}, fmt.Errorf("core: empty compiled set")
	}
	out := ScheduleComparison{Assessments: make([]ScheduleAssessment, len(cs))}
	plain := make([]Assessment, len(cs))
	for i, c := range cs {
		a, err := c.EvaluateSchedule(sch)
		if err != nil {
			return ScheduleComparison{}, fmt.Errorf("core: platform %s: %w", c.prep.platform.Spec.Name, err)
		}
		out.Assessments[i] = a
		plain[i] = a.Assessment
	}
	sc := newSetComparison(plain)
	out.Ratios = sc.Ratios
	out.Winner = sc.Winner
	out.Span = out.Assessments[0].Span
	out.PeakConcurrent = out.Assessments[0].PeakConcurrent
	return out, nil
}
