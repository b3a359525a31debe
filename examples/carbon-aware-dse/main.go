// Carbon-aware design-space exploration: pick the lowest-carbon
// platform (ASIC vs FPGA), technology node (28nm..3nm) and FPGA device
// size for an ML-inference roadmap that grows 1.5x per generation — the
// direction the paper's §5 points to for "sustainability-minded design
// decisions".
//
//	go run ./examples/carbon-aware-dse
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"greenfpga"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	kernel, err := greenfpga.KernelByName("resnet50-int8")
	if err != nil {
		return err
	}

	// Six generations of inference serving, each 1.5 years, each
	// needing 1.5x the previous throughput, on 20K deployed units.
	scenario, err := greenfpga.KernelRoadmap(kernel, 4000, 1.5, 6, greenfpga.Years(1.5), 2e4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Roadmap: %d generations of %s\n", len(scenario.Apps), kernel.Name)
	for _, app := range scenario.Apps {
		fmt.Fprintf(w, "  %-34s %6.1f Mgates, %g units\n", app.Name, app.SizeGates/1e6, app.Volume)
	}

	result, err := greenfpga.ExploreDesignSpace(greenfpga.DSEInputs{
		Apps:      scenario.Apps,
		DutyCycle: 0.3,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nExplored %d design points. Top five:\n", len(result.Candidates))
	for i, c := range result.Candidates {
		if i >= 5 {
			break
		}
		fmt.Fprintf(w, "  %d. %-44s embodied %-12v operational %v\n",
			i+1, c.String(), c.Embodied, c.Operational)
	}

	bestASIC, _ := result.BestOfKind(greenfpga.ASIC)
	bestFPGA, _ := result.BestOfKind(greenfpga.FPGA)
	fmt.Fprintf(w, "\nBest ASIC plan: %v across %g dies (a new design every generation)\n",
		bestASIC.Total, bestASIC.DevicesManufactured)
	fmt.Fprintf(w, "Best FPGA plan: %v across %g devices (one fleet, reconfigured)\n",
		bestFPGA.Total, bestFPGA.DevicesManufactured)

	saving := bestASIC.Total - bestFPGA.Total
	if saving > 0 {
		fmt.Fprintf(w, "\nReconfigurability saves %v on this roadmap (%.0f%%).\n",
			saving, saving.Kilograms()/bestASIC.Total.Kilograms()*100)
	} else {
		fmt.Fprintf(w, "\nDedicated silicon wins this roadmap by %v.\n", saving.Scale(-1))
	}

	// The same roadmap at mass-market volume flips the verdict.
	big, err := greenfpga.KernelRoadmap(kernel, 4000, 1.5, 6, greenfpga.Years(1.5), 2e6)
	if err != nil {
		return err
	}
	massMarket, err := greenfpga.ExploreDesignSpace(greenfpga.DSEInputs{
		Apps:      big.Apps,
		DutyCycle: 0.3,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAt 2M units the optimum becomes: %s\n", massMarket.Best())
	return nil
}
