package experiments

import (
	"fmt"
	"strings"

	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/sweep"
	"greenfpga/internal/units"
)

func init() {
	register("fig2", fig2)
	register("fig4", fig4)
	register("fig5", fig5)
	register("fig6", fig6)
	register("fig7", fig7)
}

// fig2 reproduces Fig. 2: ASIC vs FPGA total CFP for a single DNN
// application and for ten applications.
func fig2() (*Output, error) {
	cs, err := isoperf.CompiledSet("DNN")
	if err != nil {
		return nil, err
	}
	pair := cs[:2]
	t := report.NewTable("Fig. 2: CFP of ASIC vs FPGA computing (DNN, T=2y, V=1e6)",
		"Scenario", "FPGA [ktCO2e]", "ASIC [ktCO2e]", "FPGA:ASIC")
	var bars []report.StackedBar
	var notes []string
	for _, n := range []int{1, 10} {
		c, err := pair.Compare(core.Uniform("fig2", n, isoperf.ReferenceLifetime(), isoperf.ReferenceVolume, 0))
		if err != nil {
			return nil, err
		}
		fpga, asic, ratio := c.Assessments[0], c.Assessments[1], c.Ratio(0, 1)
		label := fmt.Sprintf("%d application(s)", n)
		t.AddRow(label, kt(fpga.Total()), kt(asic.Total()), fmt.Sprintf("%.3f", ratio))
		bars = append(bars,
			report.StackedBar{Label: fmt.Sprintf("FPGA %danc", n), Segments: []report.Segment{
				{Name: "embodied", Value: fpga.Breakdown.Embodied().Kilotonnes()},
				{Name: "operational", Value: fpga.Breakdown.Deployment().Kilotonnes()},
			}},
			report.StackedBar{Label: fmt.Sprintf("ASIC %danc", n), Segments: []report.Segment{
				{Name: "embodied", Value: asic.Breakdown.Embodied().Kilotonnes()},
				{Name: "operational", Value: asic.Breakdown.Deployment().Kilotonnes()},
			}},
		)
		if n == 10 {
			notes = append(notes, fmt.Sprintf(
				"ten applications make the FPGA %.0f%% lower-CFP than the ASIC (paper: ~25%%)",
				(1-ratio)*100))
		} else {
			notes = append(notes, fmt.Sprintf(
				"a single application leaves the FPGA %.1fx the ASIC CFP", ratio))
		}
	}
	for i := range bars {
		bars[i].Label = strings.ReplaceAll(bars[i].Label, "anc", " apps")
	}
	var chart strings.Builder
	if err := report.StackedBarChart(&chart, "Fig. 2 (DNN domain)", "ktCO2e", bars, 50); err != nil {
		return nil, err
	}
	return &Output{
		ID:     "fig2",
		Title:  "ASIC vs FPGA CFP, one vs ten applications (paper Fig. 2)",
		Tables: []*report.Table{t},
		Charts: []string{chart.String()},
		Notes:  notes,
	}, nil
}

// domainSweep1D runs one of the Figs. 4-6 sweeps for every domain;
// each point's Totals are the FPGA (0) and ASIC (1) totals.
func domainSweep1D(axisName string, axis sweep.Axis, n int, tYears, volume float64) (
	map[string][]sweep.PointN, error) {
	out := make(map[string][]sweep.PointN, 3)
	for _, d := range isoperf.Domains() {
		cs, err := isoperf.CompiledSet(d.Name)
		if err != nil {
			return nil, err
		}
		pts, err := sweep.RunN(axis, 2, uniformEval(cs[:2], axisName, n, tYears, volume))
		if err != nil {
			return nil, err
		}
		out[d.Name] = pts
	}
	return out, nil
}

// sweepTable tabulates a per-domain sweep.
func sweepTable(title, xHeader string, axis sweep.Axis, byDomain map[string][]sweep.PointN, xFmt string) *report.Table {
	t := report.NewTable(title, xHeader,
		"DNN FPGA", "DNN ASIC", "ImgProc FPGA", "ImgProc ASIC", "Crypto FPGA", "Crypto ASIC")
	for i := range axis.Values {
		row := []string{fmt.Sprintf(xFmt, axis.Values[i])}
		for _, dom := range []string{"DNN", "ImgProc", "Crypto"} {
			p := byDomain[dom][i]
			row = append(row, kt(p.Totals[0]), kt(p.Totals[1]))
		}
		t.AddRow(row...)
	}
	return t
}

// sweepCharts renders one ratio chart per domain.
func sweepCharts(titlePrefix, xLabel string, logX bool, byDomain map[string][]sweep.PointN) ([]string, error) {
	var charts []string
	for _, dom := range []string{"DNN", "ImgProc", "Crypto"} {
		pts := byDomain[dom]
		xs := make([]float64, len(pts))
		fy := make([]float64, len(pts))
		ay := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.X
			fy[i] = p.Totals[0].Kilotonnes()
			ay[i] = p.Totals[1].Kilotonnes()
		}
		var sb strings.Builder
		err := report.LineChart(&sb, report.ChartOptions{
			Title:  fmt.Sprintf("%s - %s domain", titlePrefix, dom),
			XLabel: xLabel, YLabel: "total CFP [ktCO2e]", LogX: logX,
		},
			report.Series{Name: "FPGA", X: xs, Y: fy},
			report.Series{Name: "ASIC", X: xs, Y: ay})
		if err != nil {
			return nil, err
		}
		charts = append(charts, sb.String())
	}
	return charts, nil
}

// crossoverNotes summarizes where each domain's sweep crosses ratio 1.
func crossoverNotes(byDomain map[string][]sweep.PointN, describe func(x float64) string) []string {
	var notes []string
	for _, dom := range []string{"DNN", "ImgProc", "Crypto"} {
		pts := byDomain[dom]
		ratio := make([]float64, len(pts))
		for i, p := range pts {
			ratio[i] = p.Totals[0].Kilograms() / p.Totals[1].Kilograms()
		}
		found := false
		for i := 0; i+1 < len(pts); i++ {
			if (ratio[i]-1)*(ratio[i+1]-1) < 0 {
				// Linear interpolation for the report note.
				t := (1 - ratio[i]) / (ratio[i+1] - ratio[i])
				x := pts[i].X + t*(pts[i+1].X-pts[i].X)
				kind := "A2F"
				if ratio[i] < 1 {
					kind = "F2A"
				}
				notes = append(notes, fmt.Sprintf("%s: %s crossover at %s", dom, kind, describe(x)))
				found = true
			}
		}
		if !found {
			winner := "FPGA"
			if ratio[0] > 1 {
				winner = "ASIC"
			}
			notes = append(notes, fmt.Sprintf("%s: no crossover; %s is always the lower-CFP platform", dom, winner))
		}
	}
	return notes
}

// fig4 reproduces Fig. 4: CFP versus the number of applications.
func fig4() (*Output, error) {
	axis := sweep.Axis{Name: "Num Apps", Values: sweep.IntRange(1, 12)}
	byDomain, err := domainSweep1D("n", axis, 0, 2, isoperf.ReferenceVolume)
	if err != nil {
		return nil, err
	}
	charts, err := sweepCharts("Fig. 4: CFP vs Num Apps (T=2y, V=1e6)", "N_app", false, byDomain)
	if err != nil {
		return nil, err
	}
	return &Output{
		ID:     "fig4",
		Title:  "Impact of number of applications (paper Fig. 4)",
		Tables: []*report.Table{sweepTable("Fig. 4 data [ktCO2e]", "N_app", axis, byDomain, "%.0f")},
		Charts: charts,
		Notes: crossoverNotes(byDomain, func(x float64) string {
			return fmt.Sprintf("%.1f applications", x)
		}),
	}, nil
}

// fig5 reproduces Fig. 5: CFP versus application lifetime.
func fig5() (*Output, error) {
	axis := sweep.Axis{Name: "App Lifetime", Values: sweep.Linspace(0.2, 2.5, 24)}
	byDomain, err := domainSweep1D("t", axis, isoperf.ReferenceNumApps, 0, isoperf.ReferenceVolume)
	if err != nil {
		return nil, err
	}
	charts, err := sweepCharts("Fig. 5: CFP vs App Lifetime (N=5, V=1e6)", "T_i [years]", false, byDomain)
	if err != nil {
		return nil, err
	}
	return &Output{
		ID:     "fig5",
		Title:  "Impact of application lifetime (paper Fig. 5)",
		Tables: []*report.Table{sweepTable("Fig. 5 data [ktCO2e]", "T_i [y]", axis, byDomain, "%.2f")},
		Charts: charts,
		Notes: crossoverNotes(byDomain, func(x float64) string {
			return fmt.Sprintf("%.2f years", x)
		}),
	}, nil
}

// fig6 reproduces Fig. 6: CFP versus application volume.
func fig6() (*Output, error) {
	axis := sweep.Axis{Name: "App Volume", Values: sweep.Logspace(1e3, 1e6, 13), Log: true}
	byDomain, err := domainSweep1D("v", axis, isoperf.ReferenceNumApps, 2, 0)
	if err != nil {
		return nil, err
	}
	charts, err := sweepCharts("Fig. 6: CFP vs App Volume (N=5, T=2y)", "N_vol", true, byDomain)
	if err != nil {
		return nil, err
	}
	return &Output{
		ID:     "fig6",
		Title:  "Impact of application volume (paper Fig. 6)",
		Tables: []*report.Table{sweepTable("Fig. 6 data [ktCO2e]", "N_vol", axis, byDomain, "%.3g")},
		Charts: charts,
		Notes: crossoverNotes(byDomain, func(x float64) string {
			return fmt.Sprintf("%.0f units", x)
		}),
	}, nil
}

// fig7 reproduces Fig. 7: the embodied/operational breakdown for the
// DNN domain across the three sweeps.
func fig7() (*Output, error) {
	cs, err := isoperf.CompiledSet("DNN")
	if err != nil {
		return nil, err
	}
	pair := cs[:2]
	type panel struct {
		name   string
		labels []string
		make   func(i int) core.Scenario
	}
	ref := isoperf.ReferenceLifetime()
	panels := []panel{
		{
			name:   "(a) varying N_app (T=2y, V=1e6)",
			labels: []string{"N=1", "N=3", "N=5", "N=7"},
			make: func(i int) core.Scenario {
				return core.Uniform("a", []int{1, 3, 5, 7}[i], ref, isoperf.ReferenceVolume, 0)
			},
		},
		{
			name:   "(b) varying T_i (N=5, V=1e6)",
			labels: []string{"T=0.5y", "T=1y", "T=2y", "T=2.5y"},
			make: func(i int) core.Scenario {
				t := []float64{0.5, 1, 2, 2.5}[i]
				return core.Uniform("b", 5, units.YearsOf(t), isoperf.ReferenceVolume, 0)
			},
		},
		{
			name:   "(c) varying N_vol (N=5, T=2y)",
			labels: []string{"V=1e3", "V=1e4", "V=1e5", "V=1e6"},
			make: func(i int) core.Scenario {
				return core.Uniform("c", 5, ref, []float64{1e3, 1e4, 1e5, 1e6}[i], 0)
			},
		},
	}

	var charts []string
	var tables []*report.Table
	for _, p := range panels {
		tbl := report.NewTable("Fig. 7 "+p.name+" [ktCO2e]",
			"Point", "FPGA EC", "FPGA OC", "ASIC EC", "ASIC OC")
		var bars []report.StackedBar
		for i, label := range p.labels {
			c, err := pair.Compare(p.make(i))
			if err != nil {
				return nil, err
			}
			fpga, asic := c.Assessments[0].Breakdown, c.Assessments[1].Breakdown
			tbl.AddRow(label,
				kt(fpga.Embodied()), kt(fpga.Deployment()),
				kt(asic.Embodied()), kt(asic.Deployment()))
			bars = append(bars,
				report.StackedBar{Label: label + " FPGA", Segments: []report.Segment{
					{Name: "EC", Value: fpga.Embodied().Kilotonnes()},
					{Name: "OC", Value: fpga.Deployment().Kilotonnes()},
				}},
				report.StackedBar{Label: label + " ASIC", Segments: []report.Segment{
					{Name: "EC", Value: asic.Embodied().Kilotonnes()},
					{Name: "OC", Value: asic.Deployment().Kilotonnes()},
				}})
		}
		tables = append(tables, tbl)
		var sb strings.Builder
		if err := report.StackedBarChart(&sb, "Fig. 7 "+p.name, "ktCO2e", bars, 46); err != nil {
			return nil, err
		}
		charts = append(charts, sb.String())
	}
	return &Output{
		ID:     "fig7",
		Title:  "DNN-domain CFP component breakdown (paper Fig. 7)",
		Tables: tables,
		Charts: charts,
		Notes: []string{
			"ASIC embodied carbon grows with N_app (new chips per application) and dominates",
			"FPGA embodied carbon is flat in N_app; operational carbon grows with lifetime",
			"at low volume, embodied carbon dominates both platforms",
		},
	}, nil
}
