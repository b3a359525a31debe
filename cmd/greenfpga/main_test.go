package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greenfpga/api"
	"greenfpga/internal/config"
	"greenfpga/internal/server"
)

// captureStdout runs f with os.Stdout redirected to a buffer.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	done := make(chan struct{})
	var buf bytes.Buffer
	go func() {
		defer close(done)
		io.Copy(&buf, r)
	}()
	runErr := f()
	w.Close()
	<-done
	return buf.String(), runErr
}

func TestCmdList(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdList(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig2", "fig11", "scenarios"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestCmdExperiment(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdExperiment([]string{"table3"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IndustryASIC1", "IndustryFPGA2", "340 mm^2"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment table3 missing %q:\n%s", want, out)
		}
	}
	if err := cmdExperiment([]string{}); err == nil {
		t.Error("missing id must error")
	}
	if err := cmdExperiment([]string{"fig99"}); err == nil {
		t.Error("unknown id must error")
	}
}

func TestCmdExperimentFormats(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdExperiment([]string{"-format", "markdown", "table2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| Testcase | DNN | ImgProc | Crypto |") {
		t.Errorf("markdown format:\n%s", out)
	}
	out, err = captureStdout(t, func() error {
		return cmdExperiment([]string{"-format", "csv", "table3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndustryASIC1,asic") {
		t.Errorf("csv format:\n%s", out)
	}
	if err := cmdExperiment([]string{"-format", "yaml", "table2"}); err == nil {
		t.Error("unknown format must error")
	}
}

// TestCmdCompare pins the catalog pair mode byte for byte. After an
// intentional model change, regenerate with:
//
//	go run ./cmd/greenfpga compare -fpga IndustryFPGA2 -asic IndustryASIC2 -napps 4 > cmd/greenfpga/testdata/compare-pair.golden
func TestCmdCompare(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCompare([]string{"-fpga", "IndustryFPGA2", "-asic", "IndustryASIC2", "-napps", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compare-pair.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("compare output drifted from testdata/compare-pair.golden:\n got:\n%s\nwant:\n%s", out, want)
	}
	if err := cmdCompare([]string{"-fpga", "IndustryASIC1"}); err == nil {
		t.Error("ASIC passed as -fpga must error")
	}
	if err := cmdCompare([]string{"-asic", "IndustryFPGA1"}); err == nil {
		t.Error("FPGA passed as -asic must error")
	}
	if err := cmdCompare([]string{"-fpga", "nope"}); err == nil {
		t.Error("unknown device must error")
	}
	if err := cmdCompare([]string{"-fpga", "IndustryFPGA1", "-json"}); err == nil {
		t.Error("-json with catalog mode must error")
	}
	if err := cmdCompare([]string{"-fpga", "IndustryFPGA1", "-domain", "DNN"}); err == nil {
		t.Error("-domain with catalog mode must error")
	}
	if err := cmdCompare([]string{"-asic", "IndustryASIC1", "-platforms", "fpga,gpu"}); err == nil {
		t.Error("-platforms with catalog mode must error")
	}
	// Catalog-only deployment knobs must not be silently dropped by
	// the domain-set mode.
	if err := cmdCompare([]string{"-duty", "0.9"}); err == nil || !strings.Contains(err.Error(), "catalog") {
		t.Errorf("-duty without catalog mode must error, got %v", err)
	}
	if err := cmdCompare([]string{"-domain", "DNN", "-pue", "1.5"}); err == nil {
		t.Error("-pue with domain mode must error")
	}
}

// TestCmdCompareSetMode covers the default domain-set mode: the full
// four-platform comparison with frontier, and subsetting.
func TestCmdCompareSetMode(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdCompare(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DNN platform set", "DNN-GPU", "DNN-CPU",
		"winner at N_app=5", "winner per N_app"} {
		if !strings.Contains(out, want) {
			t.Errorf("set compare missing %q:\n%s", want, out)
		}
	}
	out, err = captureStdout(t, func() error {
		return cmdCompare([]string{"-domain", "Crypto", "-platforms", "fpga,gpu"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Crypto-FPGA") || strings.Contains(out, "Crypto-CPU") {
		t.Errorf("platform subset broken:\n%s", out)
	}
	if err := cmdCompare([]string{"-domain", "Quantum"}); err == nil {
		t.Error("unknown domain must error")
	}
	if err := cmdCompare([]string{"-platforms", "fpga"}); err == nil {
		t.Error("single platform must error")
	}
}

// TestCmdCompareJSONMatchesAPI checks the acceptance guarantee: the
// -json document equals the canonical api compute result (the same
// document /v1/compare serves).
func TestCmdCompareJSONMatchesAPI(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCompare([]string{"-json", "-domain", "DNN", "-napps", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.NewEvaluator(4).RunCompare(context.Background(), api.CompareRequest{Domain: "DNN", NApps: 4}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if out != buf.String() {
		t.Errorf("compare -json differs from the api document:\n%q\nvs\n%q", out, buf.String())
	}
}

func TestCmdWafer(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdWafer(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IndustryASIC2", "Gross dice", "Per good die"} {
		if !strings.Contains(out, want) {
			t.Errorf("wafer output missing %q:\n%s", want, out)
		}
	}
	out, err = captureStdout(t, func() error {
		return cmdWafer([]string{"-device", "IndustryFPGA1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "IndustryASIC1") || !strings.Contains(out, "IndustryFPGA1") {
		t.Errorf("device filter broken:\n%s", out)
	}
	if err := cmdWafer([]string{"-device", "nope"}); err == nil {
		t.Error("unknown device must error")
	}
}

func TestCmdDevicesAndDomains(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdDevices(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndustryFPGA1") || !strings.Contains(out, "Agilex") {
		t.Errorf("devices output:\n%s", out)
	}
	out, err = captureStdout(t, func() error { return cmdDomains(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ImgProc") || !strings.Contains(out, "7.42") {
		t.Errorf("domains output:\n%s", out)
	}
}

func TestCmdCrossover(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCrossover([]string{"-domain", "DNN"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A2F at N_app = 6", "F2A at T_i = 1.59"} {
		if !strings.Contains(out, want) {
			t.Errorf("crossover output missing %q:\n%s", want, out)
		}
	}
	if err := cmdCrossover([]string{"-domain", "Quantum"}); err == nil {
		t.Error("unknown domain must error")
	}
}

func TestCmdSweep(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSweep([]string{"-domain", "Crypto", "-axis", "lifetime", "-points", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FPGA") || !strings.Contains(out, "App Lifetime") {
		t.Errorf("sweep chart:\n%s", out)
	}
	// CSV mode.
	out, err = captureStdout(t, func() error {
		return cmdSweep([]string{"-domain", "DNN", "-axis", "volume", "-points", "4", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ratio") || len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Errorf("sweep csv:\n%s", out)
	}
	if err := cmdSweep([]string{"-axis", "frequency"}); err == nil {
		t.Error("unknown axis must error")
	}
}

// TestCmdSweepPlatforms covers the -platforms spec wiring: kind lists
// and catalog device names sweep any platform set, the -json document
// is exactly the api (and therefore server) response, and empty list
// entries are usage errors (exit 2).
func TestCmdSweepPlatforms(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdSweep([]string{"-platforms", "gpu,cpu", "-to", "3", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	req := api.SweepRequest{Domain: "DNN", Axis: "napps", To: 3,
		Platforms: api.PlatformSpecs([]string{"gpu", "cpu"})}.Normalized()
	want, err := api.NewEvaluator(4).RunSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if out != buf.String() {
		t.Errorf("sweep -platforms -json differs from the api document:\n%q\nvs\n%q", out, buf.String())
	}
	// Catalog device names become device specs; the chart carries one
	// series per platform.
	out, err = captureStdout(t, func() error {
		return cmdSweep([]string{"-platforms", "IndustryFPGA1,IndustryASIC1", "-to", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndustryFPGA1") || !strings.Contains(out, "IndustryASIC1") {
		t.Errorf("device sweep chart:\n%s", out)
	}
	// CSV mode names the platforms as columns.
	out, err = captureStdout(t, func() error {
		return cmdSweep([]string{"-platforms", "fpga,asic,gpu", "-to", "2", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DNN-GPU") {
		t.Errorf("set sweep csv:\n%s", out)
	}
	if code := run([]string{"sweep", "-platforms", "gpu,,cpu"}); code != 2 {
		t.Errorf("empty -platforms entry exited %d, want 2", code)
	}
	if code := run([]string{"sweep", "-platforms", "npu,asic"}); code != 1 {
		t.Errorf("unknown platform exited %d, want 1 (runtime error)", code)
	}
}

// TestCmdMCPlatforms covers the -platforms pair on the uncertainty
// study: labels follow the studied pair and -json is exactly the api
// document.
func TestCmdMCPlatforms(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdMC([]string{"-samples", "50", "-seed", "3", "-platforms", "gpu,asic"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GPU:ASIC CFP ratio", "P(GPU wins)", "tornado"} {
		if !strings.Contains(out, want) {
			t.Errorf("mc -platforms output missing %q:\n%s", want, out)
		}
	}
	out, err = captureStdout(t, func() error {
		return cmdMC([]string{"-samples", "50", "-seed", "3", "-platforms", "gpu,asic", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.NewEvaluator(4).RunMonteCarlo(context.Background(), api.MonteCarloRequest{
		Domain: "DNN", Samples: 50, Seed: 3, NApps: 5,
		Platforms: api.PlatformSpecs([]string{"gpu", "asic"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if out != buf.String() {
		t.Errorf("mc -platforms -json differs from the api document:\n%q\nvs\n%q", out, buf.String())
	}
	if code := run([]string{"mc", "-platforms", ","}); code != 2 {
		t.Errorf("empty -platforms entries exited %d, want 2", code)
	}
	if code := run([]string{"mc", "-platforms", "IndustryFPGA1,IndustryASIC1"}); code != 1 {
		t.Errorf("catalog devices at mc exited %d, want 1 (calibration-bound study)", code)
	}
	if code := run([]string{"mc", "-napps", fmt.Sprint(api.MaxMonteCarloApps + 1)}); code != 1 {
		t.Errorf("-napps above the mc limit exited %d, want 1", code)
	}
}

// TestCmdTimeline covers the timeline mode: the staggered default,
// refresh-cap behavior, platform subsetting, and its error paths.
func TestCmdTimeline(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdTimeline([]string{"-chip-lifetime", "8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DNN timeline: 5 deployments over 4y (sequential span 10y)",
		"Sequential [kt]", "peak concurrency: 4", "winner on this timeline:"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
	out, err = captureStdout(t, func() error {
		return cmdTimeline([]string{"-domain", "Crypto", "-platforms", "fpga,asic", "-sizing", "dedicated"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Crypto-FPGA") || strings.Contains(out, "Crypto-GPU") {
		t.Errorf("platform subset broken:\n%s", out)
	}
	if !strings.Contains(out, "dedicated fleet sizing") {
		t.Errorf("sizing missing from header:\n%s", out)
	}
	if err := cmdTimeline([]string{"-domain", "Quantum"}); err == nil {
		t.Error("unknown domain must error")
	}
	if err := cmdTimeline([]string{"-sizing", "elastic"}); err == nil {
		t.Error("unknown sizing must error")
	}
	if err := cmdTimeline([]string{"-platforms", "fpga"}); err == nil {
		t.Error("single platform must error")
	}
}

// TestCmdTimelineJSONMatchesAPI checks the acceptance guarantee: the
// -json document equals the canonical api compute result (the same
// document POST /v1/timeline serves).
func TestCmdTimelineJSONMatchesAPI(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdTimeline([]string{"-json", "-napps", "4", "-interval", "1", "-chip-lifetime", "8"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.NewEvaluator(4).RunTimeline(context.Background(), api.TimelineRequest{
		NApps: 4, IntervalYears: 1, ChipLifetimeYears: 8,
	}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if out != buf.String() {
		t.Errorf("timeline -json differs from the api document:\n%q\nvs\n%q", out, buf.String())
	}
}

func TestCmdRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := config.Save(path, config.Example()); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-config", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FPGA (IndustryFPGA1)", "ASIC (IndustryASIC1)", "FPGA:ASIC ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
	// JSON mode.
	out, err = captureStdout(t, func() error {
		return cmdRun([]string{"-config", path, "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\"total_kg\"") {
		t.Errorf("run json output:\n%s", out)
	}
	if err := cmdRun(nil); err == nil {
		t.Error("missing config must error")
	}
	if err := cmdRun([]string{"-config", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file must error")
	}
}

func TestCmdMC(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdMC([]string{"-domain", "DNN", "-samples", "100", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"P(FPGA wins)", "tornado", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("mc output missing %q:\n%s", want, out)
		}
	}
	if err := cmdMC([]string{"-domain", "Quantum"}); err == nil {
		t.Error("unknown domain must error")
	}
	// A negative application count is a request error, reported before
	// any draw runs, not draw 0's empty-scenario failure.
	err = cmdMC([]string{"-napps", "-1"})
	if err == nil || err.Error() != "invalid_request: napps must be >= 1, got -1" {
		t.Errorf("mc -napps -1: got %v, want the invalid_request napps error", err)
	}
}

func TestCmdExampleConfig(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdExampleConfig(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndustryFPGA1") || !strings.Contains(out, "lifetime_years") {
		t.Errorf("example config:\n%s", out)
	}
	// The printed config must itself parse.
	if _, err := config.Parse([]byte(out)); err != nil {
		t.Errorf("printed config does not parse: %v", err)
	}
}

func TestCommandTableComplete(t *testing.T) {
	for _, name := range []string{"list", "experiment", "devices", "domains",
		"kernels", "compare", "crossover", "sweep", "timeline", "run", "plan",
		"dse", "mc", "serve", "validate", "example-config", "help"} {
		if _, ok := commands[name]; !ok {
			t.Errorf("command %q not registered", name)
		}
	}
}

// captureStderr runs f with os.Stderr redirected to a buffer.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()

	done := make(chan struct{})
	var buf bytes.Buffer
	go func() {
		defer close(done)
		io.Copy(&buf, r)
	}()
	f()
	w.Close()
	<-done
	return buf.String()
}

// TestRunExitCodes pins the process exit-code contract: 0 on success
// and every help spelling, 1 on runtime failures, 2 on usage mistakes
// — with the diagnostics on stderr exactly once.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring the diagnostics must carry ("" = none)
	}{
		{"no args", nil, 2, "commands:"},
		{"unknown command", []string{"frobnicate"}, 2, `unknown command "frobnicate"`},
		{"unknown flag", []string{"crossover", "-bogus"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"timeline", "-napps", "x"}, 2, "invalid value"},
		{"missing required", []string{"run"}, 2, "usage: greenfpga run"},
		{"missing experiment id", []string{"experiment"}, 2, "usage: greenfpga experiment"},
		{"runtime failure", []string{"crossover", "-domain", "Quantum"}, 1, "unknown domain"},
		{"subcommand help", []string{"crossover", "-h"}, 0, "Usage of crossover"},
		{"top-level help flag", []string{"--help"}, 0, ""},
		{"endpoint-timeouts typo", []string{"serve", "-addr", "127.0.0.1:0", "-endpoint-timeouts", "/v1/mc=1m,/v1/mcc=2m"},
			2, "/v1/mcc is not a route with a deadline (valid: /v1/evaluate, /v1/compare"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var stdout string
			stderr := captureStderr(t, func() {
				stdout, _ = captureStdout(t, func() error { code = run(tc.args); return nil })
			})
			if code != tc.code {
				t.Errorf("run(%v) = %d, want %d (stderr: %q)", tc.args, code, tc.code, stderr)
			}
			if tc.stderr != "" && !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, stderr)
			}
			if tc.stderr != "" && strings.Count(stderr, "greenfpga:")+strings.Count(stderr, "Usage of") > 2 {
				t.Errorf("diagnostics repeated on stderr:\n%s", stderr)
			}
			_ = stdout
		})
	}
	// Usage errors never print the message twice: a flag-parse failure
	// is reported by the flag set only.
	stderr := captureStderr(t, func() { run([]string{"sweep", "-bogus"}) })
	if strings.Contains(stderr, "greenfpga: flag provided") {
		t.Errorf("flag error printed twice:\n%s", stderr)
	}
}

// TestEndpointListsFollowTable checks the CLI's endpoint lists — job
// help, the loadgen mix — cover every compute endpoint of the api
// table, and that -endpoint-timeouts accepts each deadline route.
func TestEndpointListsFollowTable(t *testing.T) {
	help, err := captureStdout(t, func() error { return cmdJob([]string{"help"}) })
	if err != nil {
		t.Fatal(err)
	}
	calls := lgCalls()
	for _, name := range api.EndpointNames() {
		if !strings.Contains(help, name) {
			t.Errorf("job help does not list %s:\n%s", name, help)
		}
		if _, ok := calls[name]; !ok {
			t.Errorf("loadgen has no request for endpoint %s", name)
		}
	}
	for _, route := range server.DeadlineRoutes() {
		if got, err := parseEndpointTimeouts(route + "=90s"); err != nil || got[route] != 90*time.Second {
			t.Errorf("parseEndpointTimeouts(%s=90s) = %v, %v", route, got, err)
		}
	}
}

func TestCmdHelp(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdHelp(nil) })
	if err != nil {
		t.Fatalf("help must succeed, got %v", err)
	}
	for _, want := range []string{"commands:", "serve", "crossover", "example-config"} {
		if !strings.Contains(out, want) {
			t.Errorf("help output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONFlagsMatchAPI checks the satellite guarantee: the CLI's
// -json modes emit the canonical api documents byte-identically to
// the corresponding server endpoints.
func TestJSONFlagsMatchAPI(t *testing.T) {
	canonical := func(v any) string {
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"list", func() error { return cmdList([]string{"-json"}) }, canonical(api.Experiments())},
		{"devices", func() error { return cmdDevices([]string{"-json"}) }, canonical(api.Devices())},
		{"domains", func() error { return cmdDomains([]string{"-json"}) }, canonical(api.Domains())},
		{"regions", func() error { return cmdRegions([]string{"-json"}) }, canonical(api.Regions())},
	} {
		out, err := captureStdout(t, tc.run)
		if err != nil {
			t.Fatalf("%s -json: %v", tc.name, err)
		}
		if out != tc.want {
			t.Errorf("%s -json differs from the api document:\n%q\nvs\n%q", tc.name, out, tc.want)
		}
	}
}

func TestCmdCrossoverJSON(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCrossover([]string{"-domain", "DNN", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp api.CrossoverResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("crossover -json is not a CrossoverResponse: %v\n%s", err, out)
	}
	if resp.Domain != "DNN" || !resp.A2FNumApps.Found || resp.A2FNumApps.Value != 6 {
		t.Errorf("crossover -json: %+v", resp)
	}
}

func TestCmdFleetJSON(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdFleet([]string{"-regions", "iceland,taiwan,oregon", "-shift", "daily", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp api.FleetResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("fleet -json is not a FleetResponse: %v\n%s", err, out)
	}
	if resp.Domain != "DNN" || len(resp.Regions) != 3 || len(resp.Platforms) != 2 {
		t.Fatalf("fleet -json shape: %+v", resp)
	}
	if resp.Best.Region != "iceland" {
		t.Errorf("hydro grid must win the siting study, got %+v", resp.Best)
	}
	if resp.Shift != "daily" {
		t.Errorf("shift policy not echoed: %+v", resp)
	}
}

func TestCmdFleetText(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdFleet([]string{"-regions", "iceland,oregon"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fleet siting", "iceland", "oregon", "hourly", "minimum-CFP placement"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet text output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdFleetBadRegion(t *testing.T) {
	if err := cmdFleet([]string{"-regions", "atlantis"}); err == nil {
		t.Error("unknown region must error")
	}
}

func TestCmdServeBadAddr(t *testing.T) {
	if err := cmdServe([]string{"-addr", "256.1.2.3:bogus"}); err == nil {
		t.Error("unlistenable address must error")
	}
}

// TestSubcommandHelpIsErrHelp pins the contract main relies on to
// exit 0 on `greenfpga <cmd> -h`: flag sets return flag.ErrHelp.
func TestSubcommandHelpIsErrHelp(t *testing.T) {
	old := os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devnull // the flag set prints its usage to stderr
	defer func() { os.Stderr = old; devnull.Close() }()
	for name, cmd := range map[string]func([]string) error{
		"crossover": cmdCrossover, "serve": cmdServe, "run": cmdRun,
	} {
		if err := cmd([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h returned %v, want flag.ErrHelp", name, err)
		}
	}
}

func TestCmdKernels(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdKernels(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resnet50-int8", "aes256-gcm", "h265-encode-4k"} {
		if !strings.Contains(out, want) {
			t.Errorf("kernels missing %q:\n%s", want, out)
		}
	}
	out, err = captureStdout(t, func() error { return cmdKernels([]string{"-domain", "Crypto"}) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "resnet50") || !strings.Contains(out, "sha3-512") {
		t.Errorf("domain filter broken:\n%s", out)
	}
}

func TestCmdDSE(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdDSE([]string{"-generations", "3", "-top", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimum:") || !strings.Contains(out, "Rank") {
		t.Errorf("dse output:\n%s", out)
	}
	if err := cmdDSE([]string{"-kernel", "quantum"}); err == nil {
		t.Error("unknown kernel must error")
	}
	if err := cmdDSE([]string{"-generations", "0"}); err == nil {
		t.Error("zero generations must error")
	}
}

func TestCmdPlanAndValidate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := config.Save(path, config.Example()); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return cmdPlan([]string{"-config", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Portfolio plan", "all-ASIC", "all-FPGA", "saves"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	if err := cmdPlan(nil); err == nil {
		t.Error("missing config must error")
	}
	// A config with only one platform cannot be planned.
	single := config.Example()
	single.ASIC = nil
	singlePath := filepath.Join(dir, "single.json")
	if err := config.Save(singlePath, single); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlan([]string{"-config", singlePath}); err == nil {
		t.Error("single-platform config must error")
	}

	out, err = captureStdout(t, func() error { return cmdValidate([]string{"-config", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OK") || !strings.Contains(out, "3 application(s)") {
		t.Errorf("validate output:\n%s", out)
	}
	if err := cmdValidate(nil); err == nil {
		t.Error("missing config must error")
	}
	if err := cmdValidate([]string{"-config", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file must error")
	}
}
