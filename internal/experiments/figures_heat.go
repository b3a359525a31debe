package experiments

import (
	"fmt"
	"strings"

	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/sweep"
	"greenfpga/internal/units"
)

func init() {
	register("fig8", fig8)
}

// fig8 reproduces Fig. 8: pairwise heatmaps of the FPGA:ASIC CFP ratio
// for the DNN domain, with the crossover contour marked.
func fig8() (*Output, error) {
	cs, err := isoperf.CompiledSet("DNN")
	if err != nil {
		return nil, err
	}
	// eval fills the FPGA and ASIC totals of one uniform scenario.
	eval := func(n int, tYears, volume float64, totals []units.Mass) (err error) {
		for k := range totals {
			if totals[k], err = cs[k].UniformTotal(n, units.YearsOf(tYears), volume, 0); err != nil {
				return err
			}
		}
		return nil
	}

	nAxis := sweep.Axis{Name: "Num Apps", Values: sweep.IntRange(1, 10)}
	tAxis := sweep.Axis{Name: "App Lifetime [y]", Values: sweep.Linspace(0.2, 2.5, 12)}
	vAxis := sweep.Axis{Name: "App Volume", Values: sweep.Logspace(1e3, 1e7, 13), Log: true}

	type panel struct {
		name     string
		constant string
		x, y     sweep.Axis
		run      sweep.SetEval2D
	}
	ref := isoperf.ReferenceLifetime().Years()
	panels := []panel{
		{
			name: "(a) N_app x T_i", constant: "N_vol = 1e6",
			x: nAxis, y: tAxis,
			run: func(x, y float64, totals []units.Mass) error {
				return eval(int(x+0.5), y, isoperf.ReferenceVolume, totals)
			},
		},
		{
			name: "(b) N_vol x T_i", constant: "N_app = 5",
			x: vAxis, y: tAxis,
			run: func(x, y float64, totals []units.Mass) error {
				return eval(isoperf.ReferenceNumApps, y, x, totals)
			},
		},
		{
			name: "(c) N_vol x N_app", constant: "T_i = 2y",
			x: vAxis, y: nAxis,
			run: func(x, y float64, totals []units.Mass) error {
				return eval(int(y+0.5), ref, x, totals)
			},
		},
	}

	out := &Output{
		ID:    "fig8",
		Title: "Pairwise sweeps of the DNN FPGA:ASIC CFP ratio (paper Fig. 8)",
	}
	for _, p := range panels {
		g, err := sweep.Run2D(p.x, p.y, p.run)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		title := fmt.Sprintf("Fig. 8 %s (%s)", p.name, p.constant)
		if err := report.HeatmapChart(&sb, title, g, 1); err != nil {
			return nil, err
		}
		out.Charts = append(out.Charts, sb.String())

		contour := g.Contour(1)
		if len(contour) == 0 {
			out.Notes = append(out.Notes, fmt.Sprintf("%s: no crossover inside the swept region", p.name))
			continue
		}
		lo, hi := contour[0], contour[len(contour)-1]
		out.Notes = append(out.Notes, fmt.Sprintf(
			"%s: crossover contour spans (%.3g, %.3g) to (%.3g, %.3g) over %d segments",
			p.name, lo.X, lo.Y, hi.X, hi.Y, len(contour)))
	}
	return out, nil
}
