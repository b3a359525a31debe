package experiments

import (
	"fmt"

	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/units"
)

func init() {
	register("platform-frontier", platformFrontier)
}

// frontierRow renders one comparison of the full DNN platform set as a
// table row: the four totals plus the minimum-CFP winner.
func frontierRow(t *report.Table, label string, sc core.SetComparison) {
	cells := []string{label}
	for _, a := range sc.Assessments {
		cells = append(cells, kt(a.Total()))
	}
	cells = append(cells, sc.WinnerAssessment().Platform)
	t.AddRow(cells...)
}

// platformFrontier reproduces the TOCS-style four-way comparison
// (FPGAs against ASICs, GPUs and CPUs): which platform class is the
// greenest choice as the number of applications, the application
// lifetime and the deployment volume vary. Every cell evaluates the
// DNN domain's full compiled set through the O(1) uniform path.
func platformFrontier() (*Output, error) {
	cs, err := isoperf.CompiledSet("DNN")
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Platform().Spec.Name
	}
	header := append(append([]string{"Sweep point"}, names...), "Winner")

	refT, refV := isoperf.ReferenceLifetime(), float64(isoperf.ReferenceVolume)

	// Sweep 1: winner per N_app at the §4.2 reference point.
	apps := report.NewTable("Four-way frontier vs N_app (T=2y, V=1e6) [ktCO2e]", header...)
	winners := map[string]bool{}
	var firstFPGAWin int
	for n := 1; n <= 12; n++ {
		sc, err := cs.CompareUniform(n, refT, refV, 0)
		if err != nil {
			return nil, err
		}
		frontierRow(apps, fmt.Sprintf("N_app=%d", n), sc)
		win := sc.WinnerAssessment()
		winners[win.Platform] = true
		if firstFPGAWin == 0 && win.Kind == "fpga" {
			firstFPGAWin = n
		}
	}

	// Sweep 2: winner per application lifetime at N_app = 5.
	life := report.NewTable("Four-way frontier vs app lifetime (N=5, V=1e6) [ktCO2e]", header...)
	for _, ty := range []float64{0.5, 1, 2, 4, 8} {
		sc, err := cs.CompareUniform(isoperf.ReferenceNumApps, units.YearsOf(ty), refV, 0)
		if err != nil {
			return nil, err
		}
		frontierRow(life, fmt.Sprintf("T=%gy", ty), sc)
	}

	// Sweep 3: winner per deployment volume at N_app = 5, T = 2y.
	vol := report.NewTable("Four-way frontier vs volume (N=5, T=2y) [ktCO2e]", header...)
	for _, v := range []float64{1e3, 1e4, 1e5, 1e6, 1e7} {
		sc, err := cs.CompareUniform(isoperf.ReferenceNumApps, refT, v, 0)
		if err != nil {
			return nil, err
		}
		frontierRow(vol, fmt.Sprintf("V=%g", v), sc)
	}

	// Headline crossovers between set members, through the generalized
	// solvers.
	fpga, asic, gpu, cpu := cs[0], cs[1], cs[2], cs[3]
	fpgaOverGPU, foundFG, err := core.CrossoverNumAppsBetween(fpga, gpu, refT, refV, 0, 30)
	if err != nil {
		return nil, err
	}
	gpuOverASIC, foundGA, err := core.CrossoverNumAppsBetween(gpu, asic, refT, refV, 0, 30)
	if err != nil {
		return nil, err
	}
	cpuEverWins := false
	for n := 1; n <= 30 && !cpuEverWins; n++ {
		d, err := core.DiffUniformBetween(cpu, fpga, n, refT, refV, 0)
		if err != nil {
			return nil, err
		}
		cpuEverWins = d < 0
	}

	notes := []string{
		fmt.Sprintf("winners across the N_app sweep: %d distinct platform(s); the FPGA takes the "+
			"frontier from N_app=%d on", len(winners), firstFPGAWin),
	}
	if foundFG {
		notes = append(notes, fmt.Sprintf(
			"FPGA overtakes the GPU from %d applications (CrossoverNumAppsBetween)", fpgaOverGPU))
	}
	if foundGA {
		notes = append(notes, fmt.Sprintf(
			"GPU overtakes the per-application ASICs from %d applications", gpuOverASIC))
	}
	if !cpuEverWins {
		notes = append(notes, "the CPU never beats the FPGA within 30 applications: software "+
			"reuse cannot repay a 15x iso-performance power penalty")
	}
	return &Output{
		ID:     "platform-frontier",
		Title:  "Extension: four-way platform frontier (FPGA vs ASIC vs GPU vs CPU)",
		Tables: []*report.Table{apps, life, vol},
		Notes:  notes,
	}, nil
}
