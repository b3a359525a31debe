package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"greenfpga"
	"greenfpga/api"

	"greenfpga/internal/experiments"
	"greenfpga/internal/report"
)

// cmdList prints the experiment registry.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/experiments)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, api.Experiments())
	}
	for _, id := range greenfpga.Experiments() {
		fmt.Println(id)
	}
	return nil
}

// cmdExperiment regenerates one or all paper artifacts.
func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text, markdown, csv")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: greenfpga experiment [-format text|markdown|csv] <id>|all")
	}
	render := func(o *experiments.Output) error {
		switch *format {
		case "text":
			return o.Render(os.Stdout)
		case "markdown", "md":
			return o.RenderMarkdown(os.Stdout)
		case "csv":
			return o.RenderCSV(os.Stdout)
		default:
			return fmt.Errorf("unknown format %q (text, markdown, csv)", *format)
		}
	}
	id := fs.Arg(0)
	if id == "all" {
		outs, err := experiments.RunAll()
		if err != nil {
			return err
		}
		for _, o := range outs {
			if err := render(o); err != nil {
				return err
			}
		}
		return nil
	}
	out, err := experiments.Run(id)
	if err != nil {
		return err
	}
	return render(out)
}

// cmdDevices prints the Table 3 catalog.
func cmdDevices(args []string) error {
	fs := flag.NewFlagSet("devices", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/devices)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, api.Devices())
	}
	t := report.NewTable("Industry device catalog (Table 3)",
		"Name", "Kind", "Node", "Die area", "TDP", "Capacity [Mgates]", "Based on")
	for _, s := range greenfpga.IndustryDevices() {
		cap := "-"
		if s.CapacityGates > 0 {
			cap = fmt.Sprintf("%.0f", s.CapacityGates/1e6)
		}
		t.AddRow(s.Name, string(s.Kind), s.Node.Name, s.DieArea.String(),
			s.PeakPower.String(), cap, s.BasedOn)
	}
	return t.WriteText(os.Stdout)
}

// cmdDomains prints the Table 2 testcases.
func cmdDomains(args []string) error {
	fs := flag.NewFlagSet("domains", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/domains)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, api.Domains())
	}
	t := report.NewTable("Iso-performance domains (Table 2)",
		"Domain", "Area ratio", "Power ratio", "ASIC area", "ASIC TDP", "Duty")
	for _, d := range greenfpga.Domains() {
		t.AddRow(d.Name, fmt.Sprintf("%g", d.AreaRatio), fmt.Sprintf("%g", d.PowerRatio),
			d.ASICArea.String(), d.ASICPeakPower.String(), fmt.Sprintf("%.0f%%", d.DutyCycle*100))
	}
	return t.WriteText(os.Stdout)
}

// cmdRegions prints the carbon-region registry.
func cmdRegions(args []string) error {
	fs := flag.NewFlagSet("regions", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/regions)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, api.Regions())
	}
	t := report.NewTable("Carbon regions (scalar presets + hourly traces)",
		"Region", "Signal", "CI [g/kWh]", "Trace mean/min/max [g/kWh]", "Description")
	for _, r := range api.Regions().Regions {
		signal, span := "scalar", "-"
		if r.Traced {
			signal = "hourly"
			span = fmt.Sprintf("%.0f / %.0f / %.0f", r.MeanGPerKWh, r.MinGPerKWh, r.MaxGPerKWh)
		}
		t.AddRow(r.Name, signal, fmt.Sprintf("%.0f", r.IntensityGPerKWh), span, r.Description)
	}
	return t.WriteText(os.Stdout)
}

// cmdFleet runs a carbon-aware placement study through the shared api
// compute path, so its numbers match /v1/fleet exactly.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	domain := fs.String("domain", "DNN", "iso-performance domain")
	platforms := fs.String("platforms", "", "comma-separated platforms to site: kinds (fpga,asic,gpu,cpu) or catalog device names (default: the domain's fpga,asic pair)")
	regions := fs.String("regions", "", "comma-separated candidate regions (default: every registry region; see 'greenfpga regions')")
	shift := fs.String("shift", "", "load-shifting policy in traced regions: daily")
	napps := fs.Int("napps", 5, "application count")
	lifetime := fs.Float64("lifetime", 2, "application lifetime in years")
	volume := fs.Float64("volume", 1e6, "application volume")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/fleet)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req := api.FleetRequest{
		Domain: *domain, Shift: *shift,
		Workload: &api.WorkloadSpec{NApps: *napps, LifetimeYears: *lifetime, Volume: *volume},
	}
	specs, err := platformSpecArgs(*platforms)
	if err != nil {
		return err
	}
	req.Platforms = specs
	if *regions != "" {
		for _, r := range strings.Split(*regions, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				return usagef("empty region in -regions %q", *regions)
			}
			req.Regions = append(req.Regions, r)
		}
	}
	req = req.Normalized()
	resp, err := evaluator.RunFleet(context.Background(), req)
	if err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	const kgPerKt = 1e6
	cols := []string{"Region", "Signal"}
	for _, name := range resp.Platforms {
		cols = append(cols, name+" [kt]")
	}
	cols = append(cols, "Winner")
	hasSolves := false
	for _, row := range resp.Regions {
		if row.A2FNumApps != nil {
			hasSolves = true
		}
	}
	if hasSolves {
		cols = append(cols, "A2F N_app")
	}
	t := report.NewTable(fmt.Sprintf("Fleet siting: %s (N=%d apps, T=%gy, V=%g)",
		resp.Domain, req.Workload.NApps, req.Workload.LifetimeYears, req.Workload.Volume), cols...)
	for _, row := range resp.Regions {
		signal := "scalar"
		if row.Traced {
			signal = "hourly"
		}
		cells := []string{row.Region, signal}
		for _, c := range row.Cells {
			cells = append(cells, fmt.Sprintf("%.2f", c.TotalKg/kgPerKt))
		}
		cells = append(cells, row.Winner)
		if hasSolves {
			s := "-"
			if row.A2FNumApps != nil && row.A2FNumApps.Found {
				s = fmt.Sprintf("%d", int(row.A2FNumApps.Value))
			}
			cells = append(cells, s)
		}
		t.AddRow(cells...)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	for _, b := range resp.BestByPlatform {
		fmt.Printf("\nbest region for %s: %s (%.2f kt)", b.Platform, b.Region, b.TotalKg/kgPerKt)
	}
	fmt.Printf("\nminimum-CFP placement: %s in %s (%.2f kt)\n",
		resp.Best.Platform, resp.Best.Region, resp.Best.TotalKg/kgPerKt)
	if resp.Shift != "" {
		fmt.Printf("load shifting: %s (traced regions pack run-hours into their cleanest hours)\n", resp.Shift)
	}
	return nil
}

// cmdCrossover solves the three §4.2 crossover questions through the
// shared api compute path, so its numbers match /v1/crossover exactly.
func cmdCrossover(args []string) error {
	fs := flag.NewFlagSet("crossover", flag.ContinueOnError)
	domain := fs.String("domain", "DNN", "iso-performance domain (DNN, ImgProc, Crypto)")
	lifetime := fs.Float64("lifetime", 2, "application lifetime in years (for N_app and N_vol solves)")
	napps := fs.Int("napps", 5, "application count (for T_i and N_vol solves)")
	volume := fs.Float64("volume", 1e6, "application volume (for N_app and T_i solves)")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/crossover)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req := api.CrossoverRequest{
		Domain: *domain, LifetimeYears: *lifetime, NApps: *napps, Volume: *volume,
	}.Normalized()
	resp, err := evaluator.RunCrossover(context.Background(), req)
	if err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	fmt.Printf("domain %s (T=%gy, N=%d, V=%g where fixed)\n",
		resp.Domain, req.Workload.LifetimeYears, req.Workload.NApps, req.Workload.Volume)
	if s := resp.A2FNumApps; s.Found {
		n := int(s.Value)
		fmt.Printf("  A2F at N_app = %d (FPGA wins from %d applications)\n", n, n)
	} else {
		fmt.Printf("  no N_app crossover within %d applications\n", req.MaxApps)
	}
	if s := resp.F2ALifetimeYears; s.Found {
		fmt.Printf("  F2A at T_i = %.2f years (FPGA wins below)\n", s.Value)
	} else {
		fmt.Println("  no lifetime crossover in [0.05, 10] years")
	}
	if s := resp.F2AVolume; s.Found {
		fmt.Printf("  F2A at N_vol = %.0f units (FPGA wins below)\n", s.Value)
	} else {
		fmt.Println("  no volume crossover in [1e2, 1e8]")
	}
	return nil
}

// platformSpecArgs parses a -platforms flag value into specs: known
// platform kinds become domain-set selectors, anything else a catalog
// device selector. Empty entries are usage mistakes (exit 2).
func platformSpecArgs(list string) ([]api.PlatformSpec, error) {
	if list == "" {
		return nil, nil
	}
	tokens := strings.Split(list, ",")
	for i, t := range tokens {
		tokens[i] = strings.TrimSpace(t)
		if tokens[i] == "" {
			return nil, usagef("empty platform in -platforms %q", list)
		}
	}
	return api.PlatformSpecs(tokens), nil
}

// cmdSweep runs a 1-D sweep through the shared api compute path (so
// its numbers match /v1/sweep exactly) and charts it.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	domain := fs.String("domain", "DNN", "iso-performance domain")
	axis := fs.String("axis", "napps", "sweep axis: napps, lifetime, volume")
	from := fs.Float64("from", 0, "axis start (defaults per axis)")
	to := fs.Float64("to", 0, "axis end (defaults per axis)")
	points := fs.Int("points", 0, "sample count (defaults per axis)")
	platforms := fs.String("platforms", "", "comma-separated platforms to sweep: kinds (fpga,asic,gpu,cpu) or catalog device names (default: the domain's fpga,asic pair)")
	csvOut := fs.Bool("csv", false, "emit CSV instead of a chart")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/sweep)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req := api.SweepRequest{
		Domain: *domain, Axis: *axis, From: *from, To: *to, Points: *points,
	}
	specs, err := platformSpecArgs(*platforms)
	if err != nil {
		return err
	}
	req.Platforms = specs
	req = req.Normalized()
	resp, err := evaluator.RunSweep(context.Background(), req)
	if err != nil {
		return err
	}
	// Chart cosmetics only; the sample values live in resp.Points.
	axisName, logX := map[string]string{
		"napps": "Num Apps", "lifetime": "App Lifetime [y]", "volume": "App Volume",
	}[req.Axis], req.Axis == "volume"

	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	const kgPerKt = 1e6
	if len(resp.Platforms) > 0 {
		// Spec-selected platform sets carry per-platform totals.
		if *csvOut {
			cols := append([]string{axisName}, resp.Platforms...)
			t := report.NewTable("", cols...)
			for _, p := range resp.Points {
				row := []string{fmt.Sprintf("%g", p.X)}
				for _, kg := range p.TotalsKg {
					row = append(row, fmt.Sprintf("%.3f", kg/kgPerKt))
				}
				t.AddRow(row...)
			}
			return t.WriteCSV(os.Stdout)
		}
		xs := make([]float64, len(resp.Points))
		ys := make([][]float64, len(resp.Platforms))
		for j := range ys {
			ys[j] = make([]float64, len(resp.Points))
		}
		for i, p := range resp.Points {
			xs[i] = p.X
			for j, kg := range p.TotalsKg {
				ys[j][i] = kg / kgPerKt
			}
		}
		series := make([]report.Series, len(resp.Platforms))
		for j, name := range resp.Platforms {
			series[j] = report.Series{Name: name, X: xs, Y: ys[j]}
		}
		return report.LineChart(os.Stdout, report.ChartOptions{
			Title:  fmt.Sprintf("%d-platform sweep: CFP vs %s", len(resp.Platforms), axisName),
			XLabel: axisName, YLabel: "total CFP [ktCO2e]", LogX: logX,
		}, series...)
	}
	if *csvOut {
		t := report.NewTable("", axisName, "FPGA [kt]", "ASIC [kt]", "ratio")
		for _, p := range resp.Points {
			t.AddRow(fmt.Sprintf("%g", p.X), fmt.Sprintf("%.3f", p.FPGAKg/kgPerKt),
				fmt.Sprintf("%.3f", p.ASICKg/kgPerKt), fmt.Sprintf("%.4f", p.Ratio))
		}
		return t.WriteCSV(os.Stdout)
	}
	xs := make([]float64, len(resp.Points))
	fy := make([]float64, len(resp.Points))
	ay := make([]float64, len(resp.Points))
	for i, p := range resp.Points {
		xs[i], fy[i], ay[i] = p.X, p.FPGAKg/kgPerKt, p.ASICKg/kgPerKt
	}
	return report.LineChart(os.Stdout, report.ChartOptions{
		Title:  fmt.Sprintf("%s: CFP vs %s", resp.Domain, axisName),
		XLabel: axisName, YLabel: "total CFP [ktCO2e]", LogX: logX,
	},
		report.Series{Name: "FPGA", X: xs, Y: fy},
		report.Series{Name: "ASIC", X: xs, Y: ay})
}

// cmdRun evaluates a JSON scenario config through the shared api
// compute path, so its numbers match /v1/evaluate exactly.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	path := fs.String("config", "", "scenario JSON file")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/evaluate)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return usagef("usage: greenfpga run -config <file.json>")
	}
	cfg, err := greenfpga.LoadScenarioConfig(*path)
	if err != nil {
		return err
	}
	scen, err := cfg.ToScenario()
	if err != nil {
		return err
	}
	resp, err := evaluator.Evaluate(context.Background(), &api.EvaluateRequest{Scenario: cfg})
	if err != nil {
		return err
	}

	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}

	type side struct {
		name string
		res  *api.PlatformResult
	}
	var sides []side
	if resp.FPGA != nil {
		sides = append(sides, side{"FPGA", resp.FPGA})
	}
	if resp.ASIC != nil {
		sides = append(sides, side{"ASIC", resp.ASIC})
	}
	const kgPerKt = 1e6
	t := report.NewTable(fmt.Sprintf("Scenario %q (%d applications, %s total)",
		scen.Name, len(scen.Apps), scen.TotalYears()),
		"Platform", "Design", "Mfg", "Pkg", "EOL", "Operation", "App-dev", "Total [kt]")
	for _, s := range sides {
		b := s.res.Breakdown
		t.AddRow(fmt.Sprintf("%s (%s)", s.name, s.res.Platform),
			fmt.Sprintf("%.2f", b.DesignKg/kgPerKt),
			fmt.Sprintf("%.2f", b.ManufacturingKg/kgPerKt),
			fmt.Sprintf("%.2f", b.PackagingKg/kgPerKt),
			fmt.Sprintf("%.3f", b.EOLKg/kgPerKt),
			fmt.Sprintf("%.2f", b.OperationKg/kgPerKt),
			fmt.Sprintf("%.3f", (b.AppDevelopmentKg+b.ConfigurationKg)/kgPerKt),
			fmt.Sprintf("%.2f", b.TotalKg/kgPerKt))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	if resp.Ratio != nil {
		verdict := "the FPGA is the more sustainable platform"
		if resp.Verdict == "asic" {
			verdict = "the ASIC is the more sustainable platform"
		}
		fmt.Printf("\nFPGA:ASIC ratio = %.3f — %s\n", *resp.Ratio, verdict)
	}
	return nil
}

// cmdMC runs the Table 1 uncertainty study for a domain pair ratio
// through the shared api compute path, so its numbers match /v1/mc
// exactly.
func cmdMC(args []string) error {
	fs := flag.NewFlagSet("mc", flag.ContinueOnError)
	domain := fs.String("domain", "DNN", "iso-performance domain")
	samples := fs.Int("samples", 2000, "Monte-Carlo samples")
	seed := fs.Int64("seed", 1, "random seed")
	napps := fs.Int("napps", 5, "application count")
	platforms := fs.String("platforms", "", "two comma-separated platform kinds of the domain set (fpga,asic,gpu,cpu; default fpga,asic)")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/mc)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	req := api.MonteCarloRequest{
		Domain: *domain, Samples: *samples, Seed: *seed, NApps: *napps,
	}
	specs, err := platformSpecArgs(*platforms)
	if err != nil {
		return err
	}
	req.Platforms = specs
	resp, err := evaluator.RunMonteCarlo(context.Background(), req)
	if err != nil {
		return err
	}
	if *jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	labelA, labelB := "FPGA", "ASIC"
	if resp.PlatformA != "" {
		labelA, labelB = strings.ToUpper(resp.PlatformA), strings.ToUpper(resp.PlatformB)
	}
	fmt.Printf("%s:%s CFP ratio for %s over Table 1 parameter ranges (%d samples, N=%d apps)\n",
		labelA, labelB, resp.Domain, resp.Samples, resp.NApps)
	fmt.Printf("  mean %.3f  stddev %.3f\n", resp.Mean, resp.StdDev)
	pct := resp.Percentiles
	for _, p := range []struct {
		label string
		v     float64
	}{{"5", pct.P5}, {"25", pct.P25}, {"50", pct.P50}, {"75", pct.P75}, {"95", pct.P95}} {
		fmt.Printf("  p%-3s %.3f\n", p.label, p.v)
	}
	fmt.Printf("  P(%s wins) = %.1f%%\n", labelA, resp.ProbFPGAWins*100)
	fmt.Println("  tornado (|output swing| per parameter, 10th-90th percentile):")
	for _, e := range resp.Tornado {
		fmt.Printf("    %-22s %.4f\n", e.Param, e.Swing)
	}
	return nil
}

// cmdExampleConfig prints a sample scenario document.
func cmdExampleConfig(args []string) error {
	fs := flag.NewFlagSet("example-config", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	data, err := json.MarshalIndent(greenfpga.ExampleScenarioConfig(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
