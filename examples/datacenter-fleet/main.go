// Datacenter fleet: a cloud operator deploys 50K FPGA accelerator
// cards and reconfigures them across ML serving generations, the
// setting of the paper's cloud-FPGA motivation (Catapult-style). The
// example shows how deployment region, PUE and chip lifetime move the
// fleet's carbon footprint, and where the ASIC alternative would cross.
//
//	go run ./examples/datacenter-fleet
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"greenfpga"
)

const (
	fleetSize  = 50e3
	appYears   = 1.5 // ML serving generations turn over quickly
	generation = 8   // applications over the fleet's 12-year life
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	spec, err := greenfpga.DeviceByName("IndustryFPGA1")
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Fleet: %g x %s, %d application generations x %g years\n\n",
		fleetSize, spec.Name, generation, appYears)

	// Regional siting: the same fleet on different grids.
	fmt.Fprintln(w, "Deployment region (duty 30%, PUE 1.2):")
	for _, region := range []string{"usa", "europe", "taiwan", "iceland", "world"} {
		mix, err := greenfpga.GridByRegion(region)
		if err != nil {
			return err
		}
		p := greenfpga.Platform{
			Spec:            spec,
			DutyCycle:       0.3,
			PUE:             1.2,
			UseMix:          mix,
			DesignEngineers: 666,
			DesignDuration:  greenfpga.Years(2),
			ChipLifetime:    greenfpga.Years(15),
		}
		res, err := greenfpga.Evaluate(p,
			greenfpga.Uniform("fleet", generation, greenfpga.Years(appYears), fleetSize, 0))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s total %-12v operation %-12v embodied %v\n",
			region, res.Total(), res.Breakdown.Operation, res.Breakdown.Embodied())
	}

	// Facility efficiency: PUE is a straight multiplier on operation.
	fmt.Fprintln(w, "\nFacility PUE (US grid):")
	usa, _ := greenfpga.GridByRegion("usa")
	for _, pue := range []float64{1.1, 1.2, 1.5, 2.0} {
		p := greenfpga.Platform{
			Spec: spec, DutyCycle: 0.3, PUE: pue, UseMix: usa,
			DesignEngineers: 666, DesignDuration: greenfpga.Years(2),
		}
		res, err := greenfpga.Evaluate(p,
			greenfpga.Uniform("fleet", generation, greenfpga.Years(appYears), fleetSize, 0))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  PUE %.1f: total %v\n", pue, res.Total())
	}

	// The cumulative timeline with a 15-year chip lifetime: one fleet
	// build serves all eight generations.
	p := greenfpga.Platform{
		Spec: spec, DutyCycle: 0.3, PUE: 1.2, UseMix: usa,
		DesignEngineers: 666, DesignDuration: greenfpga.Years(2),
		ChipLifetime: greenfpga.Years(15),
	}
	c, err := greenfpga.Compile(p)
	if err != nil {
		return err
	}
	lc, err := c.Cumulative(greenfpga.Schedule{Name: "fleet", Deployments: []greenfpga.Deployment{{
		App:    greenfpga.Application{Name: "fleet", Lifetime: greenfpga.Years(appYears), Volume: fleetSize},
		Repeat: generation,
	}}}, 8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nCumulative fleet CFP over the deployment:")
	for _, pt := range lc.Curve {
		fmt.Fprintf(w, "  year %5.1f: %v\n", pt.Time.Years(), pt.Cumulative)
	}
	fmt.Fprintf(w, "\nFleet events: %d (design, hardware, per-generation reconfiguration)\n", len(lc.Events))
	return nil
}
