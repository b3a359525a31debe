package experiments

import (
	"fmt"
	"strings"

	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("fig9", fig9)
}

// Fig. 9 settings: 15-year chip lifetime, one-year applications, and a
// 45-year horizon that forces two FPGA fleet rebuys, sampled four times
// a year so every whole-year checkpoint is a sample.
const (
	fig9ChipLifetimeYears = 15
	fig9AppLifetimeYears  = 1
	fig9HorizonYears      = 45
	fig9Samples           = 4 * fig9HorizonYears
)

// fig9 reproduces Fig. 9: cumulative CFP over wall-clock time with a
// finite FPGA chip lifetime. The FPGA curve jumps at each fleet rebuy
// (15 and 30 years); the ASIC curve steps at every application change
// instead.
func fig9() (*Output, error) {
	out := &Output{
		ID:    "fig9",
		Title: "CFP with a 15-year chip lifetime and 1-year applications (paper Fig. 9)",
	}
	summary := report.NewTable("Fig. 9 cumulative CFP at checkpoints [ktCO2e]",
		"Domain", "Platform", "10y", "20y", "35y", "45y")
	for _, d := range isoperf.Domains() {
		set, err := d.Set()
		if err != nil {
			return nil, err
		}
		fpga := set[0]
		fpga.ChipLifetime = units.YearsOf(fig9ChipLifetimeYears)

		sch := core.Schedule{Name: "fig9", Deployments: []core.Deployment{{
			App: core.Application{
				Name:     "fig9",
				Lifetime: units.YearsOf(fig9AppLifetimeYears),
				Volume:   isoperf.ReferenceVolume,
			},
			Repeat: fig9HorizonYears / fig9AppLifetimeYears,
		}}}
		runs := []struct {
			name string
			p    core.Platform
			res  core.CumulativeCurve
		}{{name: "FPGA", p: fpga}, {name: "ASIC", p: set[1]}}
		for i := range runs {
			c, err := core.Compile(runs[i].p)
			if err != nil {
				return nil, err
			}
			if runs[i].res, err = c.Cumulative(sch, fig9Samples); err != nil {
				return nil, err
			}
		}

		var series []report.Series
		for _, r := range runs {
			xs := make([]float64, len(r.res.Curve))
			ys := make([]float64, len(r.res.Curve))
			for i, p := range r.res.Curve {
				xs[i] = p.Time.Years()
				ys[i] = p.Cumulative.Kilotonnes()
			}
			series = append(series, report.Series{Name: r.name, X: xs, Y: ys})
			at := func(years int) string { return kt(r.res.Curve[years*fig9Samples/fig9HorizonYears].Cumulative) }
			summary.AddRow(d.Name, r.name, at(10), at(20), at(35), at(45))
		}
		var sb strings.Builder
		err = report.LineChart(&sb, report.ChartOptions{
			Title:  fmt.Sprintf("Fig. 9 - %s domain (chip life 15y, app life 1y)", d.Name),
			XLabel: "years of operation", YLabel: "cumulative CFP [ktCO2e]",
		}, series...)
		if err != nil {
			return nil, err
		}
		out.Charts = append(out.Charts, sb.String())

		// Note the rebuy jumps and where the leader flips: the paper
		// observes ImgProc alternating between A2F and F2A as the
		// rebuys land.
		var jumps []string
		for _, e := range runs[0].res.Events {
			if e.Kind == core.EventHardware && e.Time > 0 {
				jumps = append(jumps, fmt.Sprintf("%gy", e.Time.Years()))
			}
		}
		crossings, err := crossoverTimes(runs[0].res.Curve, runs[1].res.Curve)
		if err != nil {
			return nil, err
		}
		var at []string
		for _, x := range crossings {
			at = append(at, fmt.Sprintf("%.1fy", x.Years()))
		}
		where := "none"
		if len(at) > 0 {
			where = strings.Join(at, ", ")
		}
		out.Notes = append(out.Notes, fmt.Sprintf(
			"%s: FPGA fleet rebuys at %s; leader flips %d time(s) over %d years (at %s)",
			d.Name, strings.Join(jumps, ", "), len(crossings), fig9HorizonYears, where))
	}
	out.Tables = append(out.Tables, summary)
	return out, nil
}

// crossoverTimes locates the times where two cumulative curves cross —
// the paper's experiment E observes the ImgProc domain gaining multiple
// A2F and F2A points as FPGA fleet rebuys land. Both curves must share
// their sample times; crossings are linearly interpolated between
// samples, and a crossing exactly on a sample is reported once.
func crossoverTimes(a, b []core.Point) ([]units.Years, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("fig9: curves have %d and %d samples", len(a), len(b))
	}
	if len(a) < 2 {
		return nil, fmt.Errorf("fig9: need at least two samples, got %d", len(a))
	}
	for i := range a {
		if a[i].Time != b[i].Time {
			return nil, fmt.Errorf("fig9: sample %d times differ (%v vs %v)",
				i, a[i].Time, b[i].Time)
		}
	}
	var out []units.Years
	for i := 1; i < len(a); i++ {
		d0 := a[i-1].Cumulative.Kilograms() - b[i-1].Cumulative.Kilograms()
		d1 := a[i].Cumulative.Kilograms() - b[i].Cumulative.Kilograms()
		switch {
		case d0 == 0 && d1 == 0:
			// Identical over the span; not a crossing.
		case d1 == 0:
			// Lands exactly on the next sample; the next iteration's
			// d0 == 0 avoids double counting.
			out = append(out, a[i].Time)
		case d0 == 0:
			// Counted by the previous iteration (or the curves started
			// equal, which is not a crossing).
		case (d0 > 0) != (d1 > 0):
			t := d0 / (d0 - d1)
			t0, t1 := a[i-1].Time.Years(), a[i].Time.Years()
			out = append(out, units.YearsOf(t0+t*(t1-t0)))
		}
	}
	return out, nil
}
