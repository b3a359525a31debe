package core

import (
	"fmt"
	"sort"

	"greenfpga/internal/units"
)

// EventKind labels a step emission on a cumulative curve.
type EventKind string

// Event kinds.
const (
	// EventDesign is a hardware design's CFP.
	EventDesign EventKind = "design"
	// EventHardware is one hardware generation's manufacturing,
	// packaging and end-of-life CFP.
	EventHardware EventKind = "hardware"
	// EventAppDev is one residency's application development and
	// (re)configuration CFP.
	EventAppDev EventKind = "app-dev"
)

// Event is one step emission on the wall clock.
type Event struct {
	// Time is when the emission lands.
	Time units.Years
	// Kind labels the emission.
	Kind EventKind
	// Carbon is the step amount.
	Carbon units.Mass
}

// Point is one sample of a cumulative curve.
type Point struct {
	// Time is the sample position.
	Time units.Years
	// Cumulative is the total CFP emitted up to Time.
	Cumulative units.Mass
}

// CumulativeCurve is a schedule's assessment laid out on the wall
// clock: the paper's experiment E (Fig. 9), where a capped FPGA fleet
// jumps at each rebuy while ASICs step at every application change.
type CumulativeCurve struct {
	// Events lists every step emission in time order.
	Events []Event
	// Curve samples the cumulative CFP from t=0 to the last
	// retirement.
	Curve []Point
}

// Total is the cumulative CFP at the curve's last sample.
func (cc CumulativeCurve) Total() units.Mass {
	if len(cc.Curve) == 0 {
		return 0
	}
	return cc.Curve[len(cc.Curve)-1].Cumulative
}

// Cumulative evaluates the schedule and lays the assessment out on the
// wall clock, sampling [0, last retirement] at samples+1 evenly spaced
// points. Every amount comes from EvaluateSchedule; only the timing is
// added:
//
//   - a reusable fleet's design lands at the first arrival, and its
//     hardware generation g at g·ChipLifetime after it;
//   - an Eq. 1 residency's design and hardware land at its start, a
//     capped residency's hardware split over its own generations;
//   - each residency's app development and configuration land at its
//     start (omitted when zero);
//   - each residency's operation accrues linearly over it.
func (c *Compiled) Cumulative(sch Schedule, samples int) (CumulativeCurve, error) {
	if samples < 1 {
		return CumulativeCurve{}, fmt.Errorf("core: cumulative curve needs at least one sample interval, got %d", samples)
	}
	a, err := c.EvaluateSchedule(sch)
	if err != nil {
		return CumulativeCurve{}, err
	}
	var out CumulativeCurve
	p := &c.prep.platform
	life := p.ChipLifetime.Years()
	first := sch.Deployments[0].Start.Years()
	var end float64
	for i := range sch.Deployments {
		first = min(first, sch.Deployments[i].Start.Years())
		end = max(end, sch.Deployments[i].End().Years())
	}
	// land records an event, holding it to the last retirement: rounding
	// can carry g·ChipLifetime an ulp past it.
	land := func(at float64, kind EventKind, carbon units.Mass) {
		out.Events = append(out.Events, Event{Time: units.YearsOf(min(at, end)), Kind: kind, Carbon: carbon})
	}
	hardware := func(b *Breakdown) units.Mass { return b.Manufacturing + b.Packaging + b.EOL }
	// spread lands hw evenly over gens generations from start.
	spread := func(start float64, hw units.Mass, gens int) {
		for g := range gens {
			land(start+float64(g)*life, EventHardware, hw.Scale(1/float64(gens)))
		}
	}

	reusable := p.Spec.Kind.Policy().Reusable
	if reusable {
		land(first, EventDesign, a.Breakdown.Design)
		spread(first, hardware(&a.Breakdown), a.HardwareGenerations)
	}
	// residency is one copy's window and operation, for the sampler.
	type residency struct {
		start, end, span float64
		op               units.Mass
	}
	ops := make([]residency, 0, len(a.PerApp))
	k := 0
	for i := range sch.Deployments {
		dep := &sch.Deployments[i]
		at := dep.Start.Years()
		for range dep.copies() {
			b := &a.PerApp[k].Breakdown
			k++
			if !reusable {
				land(at, EventDesign, b.Design)
				spread(at, hardware(b), generations(dep.App.Lifetime, p.ChipLifetime))
			}
			if dev := b.AppDevelopment + b.Configuration; dev != 0 {
				land(at, EventAppDev, dev)
			}
			span := dep.App.Lifetime.Years()
			ops = append(ops, residency{start: at, end: at + span, span: span, op: b.Operation})
			at += span
		}
	}
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].Time < out.Events[j].Time })

	// The samples run forward in time, so the landed events are a
	// growing prefix of the sorted list.
	out.Curve = make([]Point, samples+1)
	var steps units.Mass
	next := 0
	for i := range out.Curve {
		t := end
		if i < samples {
			t = end * float64(i) / float64(samples)
		}
		for ; next < len(out.Events) && out.Events[next].Time.Years() <= t; next++ {
			steps += out.Events[next].Carbon
		}
		sum := steps
		for _, r := range ops {
			if t >= r.end {
				sum += r.op
			} else if t > r.start {
				sum += r.op.Scale((t - r.start) / r.span)
			}
		}
		out.Curve[i] = Point{Time: units.YearsOf(t), Cumulative: sum}
	}
	return out, nil
}
