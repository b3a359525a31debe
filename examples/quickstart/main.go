// Quickstart: build a custom FPGA/ASIC pair with the public API,
// evaluate a multi-application scenario, and print the verdict.
//
//	go run ./examples/quickstart
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
	// A 7nm edge-inference ASIC: one chip design per application.
	node, err := greenfpga.NodeByName("7nm")
	if err != nil {
		return err
	}
	asic := greenfpga.Platform{
		Spec: greenfpga.DeviceSpec{
			Name:      "edge-npu-asic",
			Kind:      greenfpga.ASIC,
			Node:      node,
			DieArea:   greenfpga.MM2(120),
			PeakPower: greenfpga.Watts(8),
		},
		DutyCycle:       0.1,
		DesignEngineers: 250,
		DesignDuration:  greenfpga.Years(2),
	}

	// The reconfigurable alternative: 3x the silicon, ~1.9x the power,
	// one design amortized over every application.
	fpga := asic
	fpga.Spec = greenfpga.DeviceSpec{
		Name:          "edge-fpga",
		Kind:          greenfpga.FPGA,
		Node:          node,
		DieArea:       greenfpga.MM2(360),
		PeakPower:     greenfpga.Watts(15),
		CapacityGates: 200e6,
	}

	// Compile the pair once; every comparison and crossover probe
	// below reuses the cached platform constants.
	pair, err := greenfpga.CompileSet(greenfpga.PlatformSet{fpga, asic})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Edge accelerator, 100K units, 1.5-year application generations:")
	for _, nApps := range []int{1, 2, 4, 6, 8} {
		scenario := greenfpga.Uniform("edge", nApps, greenfpga.Years(1.5), 100e3, 0)
		cmp, err := pair.Compare(scenario)
		if err != nil {
			return err
		}
		ratio := cmp.Ratio(0, 1) // FPGA:ASIC
		verdict := "ASIC wins"
		if ratio < 1 {
			verdict = "FPGA wins"
		}
		fmt.Fprintf(w, "  %d application(s): FPGA %s vs ASIC %s  (ratio %.2f, %s)\n",
			nApps, cmp.Assessments[0].Total(), cmp.Assessments[1].Total(), ratio, verdict)
	}

	// Where exactly does reconfigurability start paying off?
	n, found, err := greenfpga.CrossoverNumAppsBetween(pair[0], pair[1], greenfpga.Years(1.5), 100e3, 0, 20)
	if err != nil {
		return err
	}
	if found {
		fmt.Fprintf(w, "\nA2F crossover: the FPGA is the lower-carbon choice from %d applications on.\n", n)
	} else {
		fmt.Fprintln(w, "\nNo crossover within 20 applications: the ASIC stays ahead.")
	}

	// Peek inside one assessment.
	res, err := greenfpga.Evaluate(fpga, greenfpga.Uniform("edge", 4, greenfpga.Years(1.5), 100e3, 0))
	if err != nil {
		return err
	}
	b := res.Breakdown
	fmt.Fprintf(w, "\nFPGA breakdown over 4 applications (%g devices):\n", res.DevicesManufactured)
	fmt.Fprintf(w, "  design        %v\n", b.Design)
	fmt.Fprintf(w, "  manufacturing %v\n", b.Manufacturing)
	fmt.Fprintf(w, "  packaging     %v\n", b.Packaging)
	fmt.Fprintf(w, "  end-of-life   %v\n", b.EOL)
	fmt.Fprintf(w, "  operation     %v\n", b.Operation)
	fmt.Fprintf(w, "  app-dev+cfg   %v\n", b.AppDevelopment+b.Configuration)
	fmt.Fprintf(w, "  total         %v\n", res.Total())
	return nil
}
