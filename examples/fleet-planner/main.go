// Fleet planner: a heterogeneous accelerator portfolio — prototypes,
// pilots, and a mass-market product — split optimally between one
// shared, reconfigurable FPGA fleet and dedicated ASICs. This turns
// the paper's conclusion (FPGAs for numerous low-volume short-lived
// applications, ASICs for high-volume long-lived ones) into a decision
// procedure.
//
//	go run ./examples/fleet-planner
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
	domain, err := greenfpga.DomainByName("DNN")
	if err != nil {
		return err
	}
	set, err := domain.Set() // FPGA, ASIC, then GPU and CPU
	if err != nil {
		return err
	}

	portfolio := []greenfpga.Application{
		{Name: "research-prototype", Lifetime: greenfpga.Years(0.5), Volume: 2e3},
		{Name: "robotics-pilot", Lifetime: greenfpga.Years(1), Volume: 2e4},
		{Name: "smart-camera", Lifetime: greenfpga.Years(2), Volume: 2e5},
		{Name: "phone-npu", Lifetime: greenfpga.Years(4), Volume: 3e6},
		{Name: "legacy-refresh", Lifetime: greenfpga.Years(1), Volume: 5e4},
		{Name: "automotive-retrofit", Lifetime: greenfpga.Years(1.5), Volume: 8e4},
	}

	plan, err := greenfpga.OptimizePortfolio(greenfpga.PlannerInputs{
		FPGA: set[0],
		ASIC: set[1],
		Apps: portfolio,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Optimal platform assignment (DNN iso-performance pair):")
	for _, a := range plan.Assignments {
		fmt.Fprintf(w, "  %-22s -> %-4s  (%v)\n", a.App, a.Platform, a.Cost)
	}
	fmt.Fprintf(w, "  %-22s    %-4s  (%v)\n", "shared fleet embodied", "", plan.FleetEmbodied)

	fmt.Fprintf(w, "\nPortfolio total: %v  (exact solve: %v)\n", plan.Total, plan.Exact)
	fmt.Fprintf(w, "All-ASIC baseline: %v\n", plan.AllASIC)
	fmt.Fprintf(w, "All-FPGA baseline: %v\n", plan.AllFPGA)
	fmt.Fprintf(w, "Savings vs best single-platform strategy: %v\n", plan.Savings())
	fmt.Fprintf(w, "%d of %d applications ride the FPGA fleet.\n", plan.FPGAApps(), len(portfolio))
	return nil
}
