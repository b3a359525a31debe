package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"greenfpga/api"
	"greenfpga/internal/report"
)

// cmdTimeline evaluates a time-phased deployment schedule on a domain
// set through the shared api compute path, so its `-json` output is
// byte-identical to the POST /v1/timeline response. The CLI exposes
// the staggered-arrival generator; explicit per-deployment timelines
// go through the service body.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	domain := fs.String("domain", "", "iso-performance domain set (DNN, ImgProc, Crypto; default DNN)")
	platforms := fs.String("platforms", "", "comma-separated platforms to compare: kinds (fpga,asic,gpu,cpu) or catalog device names (default: the domain's full set)")
	napps := fs.Int("napps", 0, "number of applications (default 5)")
	interval := fs.Float64("interval", 0, "arrival interval in years (default 0.5)")
	lifetime := fs.Float64("lifetime", 0, "application lifetime in years (default 2)")
	volume := fs.Float64("volume", 0, "application volume (default 1e6)")
	sizing := fs.String("sizing", "", "reusable-fleet sizing: shared, dedicated (default shared)")
	chipLifetime := fs.Float64("chip-lifetime", 0, "hardware-refresh period in wall-clock years (0 = never)")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/timeline)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req := api.TimelineRequest{
		Domain: *domain, NApps: *napps, IntervalYears: *interval,
		LifetimeYears: *lifetime, Volume: *volume, Sizing: *sizing,
		ChipLifetimeYears: *chipLifetime,
	}
	specs, err := platformSpecArgs(*platforms)
	if err != nil {
		return err
	}
	req.Platforms = specs
	req = req.Normalized()
	resp, err := evaluator.RunTimeline(context.Background(), req)
	if err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	const kgPerKt = 1e6
	t := report.NewTable(
		fmt.Sprintf("%s timeline: %d deployments over %gy (sequential span %gy), %s fleet sizing",
			resp.Domain, len(resp.Deployments), resp.SpanYears, resp.SequentialSpanYears, resp.Sizing),
		"Platform", "Kind", "Fleet", "Gens", "Timeline [kt]", "Sequential [kt]")
	for _, p := range resp.Platforms {
		t.AddRow(p.Platform, p.Kind,
			fmt.Sprintf("%.0f", p.FleetSize),
			fmt.Sprintf("%d", p.HardwareGenerations),
			fmt.Sprintf("%.2f", p.TotalKg/kgPerKt),
			fmt.Sprintf("%.2f", p.SequentialTotalKg/kgPerKt))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\npeak concurrency: %d resident deployment(s)\n", resp.PeakConcurrent)
	fmt.Printf("winner on this timeline: %s\n", resp.Winner)
	for _, r := range resp.Ratios {
		fmt.Printf("  %s : %s = %.3f\n", r.A, r.B, r.Ratio)
	}
	return nil
}
