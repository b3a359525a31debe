// Uncertainty: the paper's §5 stresses that CFP outputs inherit the
// uncertainty of coarse industry inputs (Table 1 lists ranges, not
// values). This example propagates those ranges through the DNN
// FPGA-vs-ASIC comparison with the seeded Monte-Carlo study /v1/mc
// serves (greenfpga.DomainRatioStudyConfig) and asks: with honest
// input uncertainty, how confident is the "FPGA wins at 6
// applications" verdict?
//
//	go run ./examples/uncertainty
package main

import (
	"context"
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

// run writes the study's report to w.
func run(w io.Writer) error {
	domain, err := greenfpga.DomainByName("DNN")
	if err != nil {
		return err
	}
	for _, nApps := range []int{3, 6, 9} {
		res, err := greenfpga.RunMonteCarlo(greenfpga.DomainRatioStudyConfig(context.Background(),
			domain, greenfpga.FPGA, greenfpga.ASIC, nApps, 2000, 2024))
		if err != nil {
			return err
		}
		wins := 0.0
		for _, s := range res.Samples {
			if s < 1 {
				wins++
			}
		}
		fmt.Fprintf(w, "DNN, %d applications: ratio p5=%.2f p50=%.2f p95=%.2f  P(FPGA wins)=%.0f%%\n",
			nApps, res.Percentile(5), res.Percentile(50), res.Percentile(95),
			wins/float64(len(res.Samples))*100)
		if nApps == 6 {
			fmt.Fprintln(w, "  tornado (parameter -> |ratio swing| across its 10th-90th percentile):")
			for _, e := range res.Tornado {
				fmt.Fprintf(w, "    %-22s %.4f\n", e.Param, e.Swing())
			}
		}
	}
	return nil
}
