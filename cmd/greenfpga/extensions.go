package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"greenfpga"
	"greenfpga/api"

	"greenfpga/internal/config"
	"greenfpga/internal/fab"
	"greenfpga/internal/report"
	"greenfpga/internal/yield"
)

// cmdKernels lists the workload library.
func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ContinueOnError)
	domain := fs.String("domain", "", "filter by domain (DNN, ImgProc, Crypto)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	t := report.NewTable("Workload kernel library",
		"Kernel", "Domain", "PE gates [M]", "PE throughput", "W/Mgate")
	for _, k := range greenfpga.Kernels() {
		if *domain != "" && k.Domain != *domain {
			continue
		}
		t.AddRow(k.Name, k.Domain,
			fmt.Sprintf("%.2f", k.BaseGates/1e6),
			fmt.Sprintf("%g %s", k.BaseThroughput, k.Unit),
			fmt.Sprintf("%.2f", k.WattsPerMGate))
	}
	return t.WriteText(os.Stdout)
}

// cmdDSE explores the node x platform x sizing space for a kernel
// roadmap.
func cmdDSE(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	kernel := fs.String("kernel", "resnet50-int8", "workload kernel (see 'greenfpga kernels')")
	target := fs.Float64("target", 4000, "initial throughput target in the kernel's unit")
	growth := fs.Float64("growth", 1.5, "per-generation throughput growth factor")
	generations := fs.Int("generations", 6, "application generations")
	lifetime := fs.Float64("lifetime", 1.5, "generation lifetime in years")
	volume := fs.Float64("volume", 2e4, "deployment volume")
	duty := fs.Float64("duty", 0.3, "duty cycle")
	top := fs.Int("top", 10, "candidates to print")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	k, err := greenfpga.KernelByName(*kernel)
	if err != nil {
		return err
	}
	s, err := greenfpga.KernelRoadmap(k, *target, *growth, *generations,
		greenfpga.Years(*lifetime), *volume)
	if err != nil {
		return err
	}
	res, err := greenfpga.ExploreDesignSpace(greenfpga.DSEInputs{
		Apps:      s.Apps,
		DutyCycle: *duty,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Carbon-aware DSE: %s, %d generations x %gy, %g units, duty %g",
			*kernel, *generations, *lifetime, *volume, *duty),
		"Rank", "Candidate", "Embodied", "Operational", "Total")
	for i, c := range res.Candidates {
		if i >= *top {
			break
		}
		t.AddRow(fmt.Sprintf("%d", i+1), c.String(),
			c.Embodied.String(), c.Operational.String(), c.Total.String())
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\noptimum: %s\n", res.Best())
	return nil
}

// cmdPlan optimizes a portfolio from a JSON scenario config: the
// config's FPGA and ASIC platforms plus its application list become
// the planning problem.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	path := fs.String("config", "", "scenario JSON with both fpga and asic platforms")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return usagef("usage: greenfpga plan -config <file.json>")
	}
	cfg, err := config.Load(*path)
	if err != nil {
		return err
	}
	if cfg.FPGA == nil || cfg.ASIC == nil {
		return fmt.Errorf("plan needs both fpga and asic platforms in the config")
	}
	fpga, err := cfg.FPGA.ToPlatform()
	if err != nil {
		return err
	}
	asic, err := cfg.ASIC.ToPlatform()
	if err != nil {
		return err
	}
	scen, err := cfg.ToScenario()
	if err != nil {
		return err
	}
	plan, err := greenfpga.OptimizePortfolio(greenfpga.PlannerInputs{
		FPGA: fpga, ASIC: asic, Apps: scen.Apps, StrictEq2: cfg.StrictEq2,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Portfolio plan for %q", cfg.Name),
		"Application", "Platform", "Attributed CFP")
	for _, a := range plan.Assignments {
		t.AddRow(a.App, string(a.Platform), a.Cost.String())
	}
	t.AddRow("(shared fleet embodied)", "-", plan.FleetEmbodied.String())
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\ntotal %v | all-ASIC %v | all-FPGA %v | saves %v (exact=%v)\n",
		plan.Total, plan.AllASIC, plan.AllFPGA, plan.Savings(), plan.Exact)
	return nil
}

// cmdCompare compares platforms on a shared uniform scenario. Two
// modes: the default domain-set mode evaluates the N platforms of a
// Table 2 iso-performance set (FPGA, ASIC, GPU, CPU) through the
// shared api compute, so `-json` output is byte-identical to the
// POST /v1/compare response; passing -fpga or -asic selects the
// legacy catalog head-to-head of two Table 3 devices.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fpgaName := fs.String("fpga", "IndustryFPGA1", "catalog FPGA (catalog head-to-head mode)")
	asicName := fs.String("asic", "IndustryASIC1", "catalog ASIC (catalog head-to-head mode)")
	domain := fs.String("domain", "", "iso-performance domain set (DNN, ImgProc, Crypto; default DNN)")
	platforms := fs.String("platforms", "", "comma-separated platforms to compare: kinds (fpga,asic,gpu,cpu) or catalog device names (default: the domain's full set)")
	napps := fs.Int("napps", 0, "number of sequential applications (default 3 catalog / 5 domain)")
	lifetime := fs.Float64("lifetime", 2, "application lifetime in years")
	volume := fs.Float64("volume", 1e6, "application volume")
	maxapps := fs.Int("maxapps", 0, "winner-per-N_app frontier length (domain mode, default 12)")
	duty := fs.Float64("duty", 0.3, "duty cycle for both platforms (catalog mode)")
	pue := fs.Float64("pue", 1.2, "facility PUE (catalog mode)")
	jsonOut := fs.Bool("json", false, "emit the canonical api document (/v1/compare, domain mode)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	catalogMode := false
	var domainOnly, catalogOnly []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fpga", "asic":
			catalogMode = true
		case "duty", "pue":
			catalogOnly = append(catalogOnly, "-"+f.Name)
		case "domain", "platforms", "maxapps", "json":
			domainOnly = append(domainOnly, "-"+f.Name)
		}
	})
	if !catalogMode {
		// The domain sets carry Table 2's calibrated deployment knobs;
		// silently dropping an explicit -duty/-pue would report numbers
		// for inputs the user did not ask for.
		if len(catalogOnly) > 0 {
			return fmt.Errorf("%s belong(s) to the catalog head-to-head mode; pass -fpga/-asic to use it",
				strings.Join(catalogOnly, ", "))
		}
		return runSetCompare(*domain, *platforms, *napps, *lifetime, *volume, *maxapps, *jsonOut)
	}
	if len(domainOnly) > 0 {
		return fmt.Errorf("%s belong(s) to the domain-set mode; drop -fpga/-asic to use it",
			strings.Join(domainOnly, ", "))
	}
	if *napps == 0 {
		*napps = 3
	}
	build := func(name string, wantKind greenfpga.DeviceKind) (greenfpga.Platform, error) {
		spec, err := greenfpga.DeviceByName(name)
		if err != nil {
			return greenfpga.Platform{}, err
		}
		if spec.Kind != wantKind {
			return greenfpga.Platform{}, fmt.Errorf("%s is a %s, need a %s", name, spec.Kind, wantKind)
		}
		return greenfpga.Platform{
			Spec:            spec,
			DutyCycle:       *duty,
			PUE:             *pue,
			DesignEngineers: 500,
			DesignDuration:  greenfpga.Years(2),
		}, nil
	}
	fpga, err := build(*fpgaName, greenfpga.FPGA)
	if err != nil {
		return err
	}
	asic, err := build(*asicName, greenfpga.ASIC)
	if err != nil {
		return err
	}
	pair, err := greenfpga.CompileSet(greenfpga.PlatformSet{fpga, asic})
	if err != nil {
		return err
	}
	cmp, err := pair.Compare(greenfpga.Uniform("compare", *napps,
		greenfpga.Years(*lifetime), *volume, 0))
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s vs %s: %d apps x %gy, %g units, duty %g, PUE %g",
			*fpgaName, *asicName, *napps, *lifetime, *volume, *duty, *pue),
		"Platform", "Design", "Mfg", "Pkg", "EOL", "Operation", "App-dev", "Total")
	for _, side := range []struct {
		name string
		b    greenfpga.Breakdown
	}{{*fpgaName, cmp.Assessments[0].Breakdown}, {*asicName, cmp.Assessments[1].Breakdown}} {
		t.AddRow(side.name,
			side.b.Design.String(), side.b.Manufacturing.String(),
			side.b.Packaging.String(), side.b.EOL.String(),
			side.b.Operation.String(),
			(side.b.AppDevelopment + side.b.Configuration).String(),
			side.b.Total().String())
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	verdict := "the FPGA fleet is the more sustainable choice"
	ratio := cmp.Ratio(0, 1)
	if ratio >= 1 {
		verdict = "the per-application ASICs are the more sustainable choice"
	}
	fmt.Printf("\nFPGA:ASIC ratio = %.3f — %s\n", ratio, verdict)
	return nil
}

// runSetCompare runs the domain-set comparison through the shared api
// compute, so numbers (and with -json, bytes) match POST /v1/compare.
func runSetCompare(domain, platforms string, napps int, lifetime, volume float64, maxapps int, jsonOut bool) error {
	req := api.CompareRequest{
		Domain: domain, NApps: napps,
		LifetimeYears: lifetime, Volume: volume, MaxApps: maxapps,
	}
	specs, err := platformSpecArgs(platforms)
	if err != nil {
		return err
	}
	req.Platforms = specs
	req = req.Normalized()
	resp, err := evaluator.RunCompare(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut {
		return api.WriteJSON(os.Stdout, resp)
	}
	const kgPerKt = 1e6
	t := report.NewTable(
		fmt.Sprintf("%s platform set: %d apps x %gy, %g units",
			resp.Domain, resp.NApps, resp.LifetimeYears, resp.Volume),
		"Platform", "Kind", "Embodied [kt]", "Deployment [kt]", "Total [kt]")
	for _, p := range resp.Platforms {
		b := p.Breakdown
		embodied := b.DesignKg + b.ManufacturingKg + b.PackagingKg + b.EOLKg
		t.AddRow(p.Platform, p.Kind,
			fmt.Sprintf("%.2f", embodied/kgPerKt),
			fmt.Sprintf("%.2f", (b.TotalKg-embodied)/kgPerKt),
			fmt.Sprintf("%.2f", b.TotalKg/kgPerKt))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nwinner at N_app=%d: %s\n", resp.NApps, resp.Winner)
	for _, r := range resp.Ratios {
		fmt.Printf("  %s : %s = %.3f\n", r.A, r.B, r.Ratio)
	}
	fmt.Println("\nwinner per N_app:")
	for _, f := range resp.Frontier {
		fmt.Printf("  N=%-3d %-12s %.2f kt\n", f.NApps, f.Winner, f.TotalKg/kgPerKt)
	}
	return nil
}

// cmdWafer prints wafer-level manufacturing economics for a catalog
// device: gross/good dice per 300mm wafer and per-wafer carbon.
func cmdWafer(args []string) error {
	fs := flag.NewFlagSet("wafer", flag.ContinueOnError)
	name := fs.String("device", "", "catalog device (default: the whole Table 3 catalog)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	devices := greenfpga.IndustryDevices()
	if *name != "" {
		d, err := greenfpga.DeviceByName(*name)
		if err != nil {
			return err
		}
		devices = []greenfpga.DeviceSpec{d}
	}
	t := report.NewTable("Wafer economics (300mm, Murphy yield)",
		"Device", "Node", "Die", "Gross dice", "Good dice", "Yield",
		"Per wafer", "Per good die")
	for _, d := range devices {
		res, err := fab.PerWafer(fab.Inputs{Node: d.Node, DieArea: d.DieArea}, yield.Wafer300)
		if err != nil {
			return err
		}
		t.AddRow(d.Name, d.Node.Name, d.DieArea.String(),
			fmt.Sprintf("%d", res.GrossDice),
			fmt.Sprintf("%.1f", res.GoodDice),
			fmt.Sprintf("%.3f", res.Yield),
			res.PerWafer.String(), res.PerGoodDie.String())
	}
	return t.WriteText(os.Stdout)
}

// cmdValidate checks a scenario config without running it.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	path := fs.String("config", "", "scenario JSON file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return usagef("usage: greenfpga validate -config <file.json>")
	}
	cfg, err := config.Load(*path)
	if err != nil {
		return err
	}
	scen, err := cfg.ToScenario()
	if err != nil {
		return err
	}
	platforms := 0
	if cfg.FPGA != nil {
		platforms++
	}
	if cfg.ASIC != nil {
		platforms++
	}
	fmt.Printf("%s: OK (%d platform(s), %d application(s), %s total)\n",
		*path, platforms, len(scen.Apps), scen.TotalYears())
	return nil
}
