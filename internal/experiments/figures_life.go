package experiments

import (
	"fmt"
	"strings"

	"greenfpga/internal/isoperf"
	"greenfpga/internal/lifecycle"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("fig9", fig9)
}

// Fig. 9 settings: 15-year chip lifetime, one-year applications, and a
// 45-year horizon that forces two FPGA fleet rebuys.
const (
	fig9ChipLifetimeYears = 15
	fig9AppLifetimeYears  = 1
	fig9HorizonYears      = 45
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

		fRes, err := lifecycle.Run(lifecycle.Config{
			Platform:    fpga,
			AppLifetime: units.YearsOf(fig9AppLifetimeYears),
			Horizon:     units.YearsOf(fig9HorizonYears),
			Volume:      isoperf.ReferenceVolume,
			Samples:     180,
		})
		if err != nil {
			return nil, err
		}
		aRes, err := lifecycle.Run(lifecycle.Config{
			Platform:    set[1],
			AppLifetime: units.YearsOf(fig9AppLifetimeYears),
			Horizon:     units.YearsOf(fig9HorizonYears),
			Volume:      isoperf.ReferenceVolume,
			Samples:     180,
		})
		if err != nil {
			return nil, err
		}
		runs := []struct {
			name string
			res  lifecycle.Result
		}{{"FPGA", fRes}, {"ASIC", aRes}}

		var series []report.Series
		for _, r := range runs {
			xs := make([]float64, len(r.res.Curve))
			ys := make([]float64, len(r.res.Curve))
			for i, p := range r.res.Curve {
				xs[i] = p.Time.Years()
				ys[i] = p.Cumulative.Kilotonnes()
			}
			series = append(series, report.Series{Name: r.name, X: xs, Y: ys})
			summary.AddRow(d.Name, r.name,
				kt(curveAt(r.res, 10)), kt(curveAt(r.res, 20)),
				kt(curveAt(r.res, 35)), kt(curveAt(r.res, 45)))
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
		for _, e := range fRes.Events {
			if e.Kind == lifecycle.EventHardware && e.Time > 0 {
				jumps = append(jumps, fmt.Sprintf("%gy", e.Time.Years()))
			}
		}
		crossings, err := lifecycle.CrossoverTimes(fRes.Curve, aRes.Curve)
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

// curveAt samples a lifecycle curve at the point nearest t.
func curveAt(r lifecycle.Result, t float64) units.Mass {
	if len(r.Curve) == 0 {
		return 0
	}
	best := r.Curve[0]
	for _, p := range r.Curve {
		if abs(p.Time.Years()-t) < abs(best.Time.Years()-t) {
			best = p
		}
	}
	return best.Cumulative
}

// abs avoids importing math for one call.
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
