package experiments

import (
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/deploy"
	"greenfpga/internal/device"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("carbon-scheduling", carbonScheduling)
}

// carbonScheduling quantifies carbon-aware scheduling: the same FPGA
// fleet and the same work, shifted across the grid's day. A flat
// duty-cycle model (the paper's C_op) cannot distinguish the
// schedules; the hourly model shows the midday (solar) window winning.
func carbonScheduling() (*Output, error) {
	spec, err := device.ByName("IndustryFPGA1")
	if err != nil {
		return nil, err
	}
	base := units.GramsPerKWh(440) // world-average-like grid
	const fleet, pue = 50e3, 1.2
	// One busy hour at full draw, in kWh: Convolve's (kg/kWh)·h
	// integral times this is a device's annual kg.
	peakKWh := spec.PeakPower.Scale(pue).OverHours(1).KWh()

	// A solar-influenced day per midday dip: the base intensity dips
	// across 10:00-16:00 with half-depth shoulders at 08:00-10:00 and
	// 16:00-18:00, and rises by half the dip across the evening peak
	// (18:00-22:00) when gas fills the solar gap.
	dips := []float64{0, 0.3, 0.6}
	days := make([]*carbon.Integrator, len(dips))
	for i, dip := range dips {
		day := make(carbon.Trace, 24)
		for h := range day {
			scale := 1.0
			switch {
			case h >= 10 && h < 16:
				scale = 1 - dip
			case (h >= 8 && h < 10) || (h >= 16 && h < 18):
				scale = 1 - dip/2
			case h >= 18 && h < 22:
				scale = 1 + dip/2
			}
			day[h] = base.Scale(scale)
		}
		if days[i], err = carbon.NewIntegrator(day); err != nil {
			return nil, err
		}
	}

	windows := []struct {
		name  string
		start int
	}{
		{"midday (10:00-18:00)", 10},
		{"morning (06:00-14:00)", 6},
		{"evening (14:00-22:00)", 14},
		{"night (22:00-06:00)", 22},
	}

	t := report.NewTable(
		"Carbon-aware scheduling: 50K-card fleet, 8 busy hours at 90% (idle 10%)",
		"Busy window", "Flat-model [kt/yr]", "No solar [kt/yr]", "30% solar dip [kt/yr]", "60% solar dip [kt/yr]")

	var bestName, worstName string
	var bestKg, worstKg float64
	for _, w := range windows {
		// 8 busy hours at 90% draw from w.start, idle at 10% otherwise.
		util := make([]float64, 24)
		var mean float64
		for h := range util {
			util[h] = 0.1
			if (h-w.start+24)%24 < 8 {
				util[h] = 0.9
			}
			mean += util[h]
		}
		mean /= 24
		flatCarbon, err := deploy.OperationProfile{
			PeakPower: spec.PeakPower, DutyCycle: mean, PUE: pue,
		}.AnnualCarbon() // uses the default world mix
		if err != nil {
			return nil, err
		}
		row := []string{w.name, fmt.Sprintf("%.1f", flatCarbon.Scale(fleet).Kilotonnes())}
		for i, day := range days {
			intensityHours, err := day.Convolve(util)
			if err != nil {
				return nil, err
			}
			fleetKg := intensityHours * peakKWh * fleet
			row = append(row, fmt.Sprintf("%.1f", fleetKg/1e6))
			if dips[i] == 0.6 {
				if bestName == "" || fleetKg < bestKg {
					bestName, bestKg = w.name, fleetKg
				}
				if worstName == "" || fleetKg > worstKg {
					worstName, worstKg = w.name, fleetKg
				}
			}
		}
		t.AddRow(row...)
	}

	saving := (worstKg - bestKg) / worstKg * 100
	return &Output{
		ID:     "carbon-scheduling",
		Title:  "Extension: carbon-aware scheduling on a solar-influenced grid",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("on a 60%%-solar-dip grid, the %s window emits %.0f%% less than the %s window",
				bestName, saving, worstName),
			"the flat duty-cycle model of the paper cannot distinguish the schedules; the hourly model can",
		},
	}, nil
}
