package experiments

import (
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/core"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("carbon-siting", carbonSiting)
	register("load-shifting", loadShifting)
}

// sitingWorkload pins the fleet-study anchor both carbon experiments
// share: the /v1/fleet defaults (5 apps, 2 years, 1e6 volume) so the
// artifacts cross-check against the endpoint.
const (
	sitingNApps  = 5
	sitingVolume = 1e6
	sitingMaxN   = 30
)

var sitingLifetime = units.YearsOf(2)

// sitedPair compiles the DNN FPGA/ASIC pair (members 0 and 1)
// deployed in a carbon region: scalar regions swap the use-phase mix,
// traced regions additionally attach the cached hourly integrator (and
// optionally a shifting policy), exercising the trace-integrated
// operational path.
func sitedPair(reg carbon.Region, shift string) (core.CompiledSet, error) {
	set, err := domainSet("DNN")
	if err != nil {
		return nil, err
	}
	pair := set[:2]
	for i := range pair {
		p := &pair[i]
		p.UseMix = reg.Mix
		p.UseTrace, p.UseIntegrator, p.UseShift = nil, nil, ""
		if reg.Traced {
			it, err := carbon.IntegratorFor(reg.Name)
			if err != nil {
				return nil, err
			}
			p.UseIntegrator = it
			p.UseShift = shift
		}
	}
	return pair.Compile()
}

// carbonSiting runs the fleet siting study as a paper-style artifact:
// the DNN pair deployed across every registry region, scalar presets
// and hourly-trace grids alike, with the A2F crossover re-solved per
// region. The deployment grid moves only the operational share, so
// clean grids stretch the FPGA-favourable region of the tradeoff —
// the grid-aware crossover shift the trace engine exists to expose.
func carbonSiting() (*Output, error) {
	t := report.NewTable(
		fmt.Sprintf("Carbon-aware siting: DNN pair (N=%d apps, T=%gy, V=%g) total CFP [kt]",
			sitingNApps, sitingLifetime.Years(), sitingVolume),
		"Region", "Signal", "Mean CI [g/kWh]", "FPGA", "ASIC", "Winner", "A2F N_app")
	bestKg, worstKg := 0.0, 0.0
	var bestRegion string
	minA2F, maxA2F := 0, 0
	for _, reg := range carbon.Regions() {
		cp, err := sitedPair(reg, "")
		if err != nil {
			return nil, err
		}
		cmp, err := cp.CompareUniform(sitingNApps, sitingLifetime, sitingVolume, 0)
		if err != nil {
			return nil, err
		}
		signal, mean := "scalar", 0.0
		if reg.Traced {
			signal = "hourly"
			tr, err := reg.Trace()
			if err != nil {
				return nil, err
			}
			mean = tr.Mean().GramsPerKWh()
		} else {
			ci, err := reg.Intensity()
			if err != nil {
				return nil, err
			}
			mean = ci.GramsPerKWh()
		}
		winner := cmp.WinnerAssessment()
		winKg := winner.Total().Kilograms()
		n, found, err := core.CrossoverNumAppsBetween(cp[0], cp[1], sitingLifetime, sitingVolume, 0, sitingMaxN)
		if err != nil {
			return nil, err
		}
		a2f := "-"
		if found {
			a2f = fmt.Sprintf("%d", n)
			if minA2F == 0 || n < minA2F {
				minA2F = n
			}
			if n > maxA2F {
				maxA2F = n
			}
		}
		t.AddRow(reg.Name, signal, fmt.Sprintf("%.0f", mean),
			kt(cmp.Assessments[0].Total()), kt(cmp.Assessments[1].Total()), winner.Platform, a2f)
		if bestKg == 0 || winKg < bestKg {
			bestKg, bestRegion = winKg, reg.Name
		}
		if winKg > worstKg {
			worstKg = winKg
		}
	}
	return &Output{
		ID:     "carbon-siting",
		Title:  "Extension: carbon-aware fleet siting across grid regions",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("siting moves the best-platform CFP by %.1fx (%.2f to %.2f kt); "+
				"%s is the minimum-CFP placement", worstKg/bestKg, worstKg/1e6, bestKg/1e6, bestRegion),
			fmt.Sprintf("the A2F crossover shifts from %d to %d applications across regions — "+
				"grid mix changes which platform a fleet should buy, not just how much it emits",
				minA2F, maxA2F),
		},
	}, nil
}

// loadShifting quantifies the temporal lever in the hourly-trace
// regions: packing each day's run-hours into its cleanest hours (the
// daily shift policy) against running flat out. Only the operational
// share moves; volatile grids (solar midday dips, wind swings) reward
// shifting, near-flat ones don't.
func loadShifting() (*Output, error) {
	t := report.NewTable(
		fmt.Sprintf("Daily load shifting: DNN FPGA fleet (N=%d apps, T=%gy, V=%g)",
			sitingNApps, sitingLifetime.Years(), sitingVolume),
		"Region", "CI mean/min [g/kWh]", "Op CFP flat [kt]", "Op CFP shifted [kt]", "Op saved", "Total saved")
	bestSave, bestRegion := 0.0, ""
	for _, reg := range carbon.Regions() {
		if !reg.Traced {
			continue
		}
		flat, err := sitedPair(reg, "")
		if err != nil {
			return nil, err
		}
		shifted, err := sitedPair(reg, carbon.ShiftDaily)
		if err != nil {
			return nil, err
		}
		fa, err := flat[0].EvaluateUniform(sitingNApps, sitingLifetime, sitingVolume, 0)
		if err != nil {
			return nil, err
		}
		sa, err := shifted[0].EvaluateUniform(sitingNApps, sitingLifetime, sitingVolume, 0)
		if err != nil {
			return nil, err
		}
		tr, err := reg.Trace()
		if err != nil {
			return nil, err
		}
		min, _ := tr.Bounds()
		opFlat, opShift := fa.Breakdown.Operation, sa.Breakdown.Operation
		opSave := 1 - opShift.Kilograms()/opFlat.Kilograms()
		totSave := 1 - sa.Total().Kilograms()/fa.Total().Kilograms()
		t.AddRow(reg.Name,
			fmt.Sprintf("%.0f / %.0f", tr.Mean().GramsPerKWh(), min.GramsPerKWh()),
			kt(opFlat), kt(opShift),
			fmt.Sprintf("%.1f%%", 100*opSave), fmt.Sprintf("%.1f%%", 100*totSave))
		if opSave > bestSave {
			bestSave, bestRegion = opSave, reg.Name
		}
	}
	return &Output{
		ID:     "load-shifting",
		Title:  "Extension: temporal load shifting on hourly grid traces",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("daily shifting cuts operational CFP by up to %.1f%% (%s) with zero "+
				"hardware change; embodied carbon is untouched, so total savings are smaller",
				100*bestSave, bestRegion),
			"shifting only pays on volatile grids — the lever is the trace's daily swing, not its mean",
		},
	}, nil
}
