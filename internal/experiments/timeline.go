package experiments

import (
	"fmt"

	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("timeline-staggered", timelineStaggered)
}

// Timeline-staggered settings: the Fig. 4 DNN scenario (2-year apps,
// 1e6 units) under a refresh cap tight enough to bite near the paper's
// A2F point, with arrivals every six months instead of strictly back
// to back.
const (
	timelineChipLifetimeYears = 8
	timelineIntervalYears     = 0.5
	timelineMaxApps           = 12
)

// timelineStaggered contrasts the paper's sequential-deployment
// assumption with a staggered-arrival timeline. Eqs. 1–3 implicitly
// serialize the N applications, so the FPGA fleet ages by the sum of
// application lifetimes; real fleets overlap arrivals, compressing the
// wall-clock span the hardware must survive. Under a refresh cap the
// difference is a whole fleet rebuild: sequential accounting forces a
// second FPGA generation from the fifth 2-year application
// (span 10y > 8y), while half-year staggered arrivals stay within one
// chip lifetime through twelve applications — flipping the Fig. 4 A2F
// crossover back to the uncapped point.
func timelineStaggered() (*Output, error) {
	d, err := isoperf.ByName("DNN")
	if err != nil {
		return nil, err
	}
	set, err := d.Set()
	if err != nil {
		return nil, err
	}
	pair := set[:2]
	for i := range pair {
		pair[i].ChipLifetime = units.YearsOf(timelineChipLifetimeYears)
	}
	cs, err := pair.Compile()
	if err != nil {
		return nil, err
	}
	fpgaC, asicC := cs[0], cs[1]

	t := report.NewTable(
		fmt.Sprintf("DNN totals vs N_app with an %d-year refresh cap (T=2y, V=1e6) [ktCO2e]",
			timelineChipLifetimeYears),
		"N_app", "ASIC", "FPGA sequential", "gens", "FPGA staggered 0.5y", "gens")
	var seqCross, stagCross int
	for n := 1; n <= timelineMaxApps; n++ {
		uniform := core.Uniform("t", n, isoperf.ReferenceLifetime(), isoperf.ReferenceVolume, 0)
		asic, err := asicC.EvaluateSchedule(core.Sequential(uniform))
		if err != nil {
			return nil, err
		}
		seq, err := fpgaC.EvaluateSchedule(core.Sequential(uniform))
		if err != nil {
			return nil, err
		}
		stag, err := fpgaC.EvaluateSchedule(core.Staggered("t", n,
			units.YearsOf(timelineIntervalYears), isoperf.ReferenceLifetime(),
			isoperf.ReferenceVolume, 0))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), kt(asic.Total()),
			kt(seq.Total()), fmt.Sprintf("%d", seq.HardwareGenerations),
			kt(stag.Total()), fmt.Sprintf("%d", stag.HardwareGenerations))
		if seqCross == 0 && seq.Total() < asic.Total() {
			seqCross = n
		}
		if stagCross == 0 && stag.Total() < asic.Total() {
			stagCross = n
		}
	}
	notes := []string{
		fmt.Sprintf("sequential accounting (the paper's Eqs. 1-2 reading): A2F at %s under the %d-year refresh cap",
			crossLabelN(seqCross), timelineChipLifetimeYears),
		fmt.Sprintf("staggered arrivals every %gy: A2F at %s — overlap compresses the wall-clock span below one chip lifetime, saving a whole fleet rebuild",
			timelineIntervalYears, crossLabelN(stagCross)),
	}
	return &Output{
		ID:     "timeline-staggered",
		Title:  "Extension: staggered deployment timelines vs the sequential assumption",
		Tables: []*report.Table{t},
		Notes:  notes,
	}, nil
}

// crossLabelN renders an A2F application count or its absence.
func crossLabelN(n int) string {
	if n == 0 {
		return fmt.Sprintf("no crossover within %d applications", timelineMaxApps)
	}
	return fmt.Sprintf("%d applications", n)
}
