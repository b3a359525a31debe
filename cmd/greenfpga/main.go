// Command greenfpga is the GreenFPGA carbon-footprint tool: it
// evaluates FPGA- and ASIC-based computing scenarios, regenerates every
// table and figure of the DAC'24 paper, sweeps parameters, solves
// crossover points, runs uncertainty studies, and serves it all over
// HTTP.
//
// Usage:
//
//	greenfpga list                          list paper experiments
//	greenfpga experiment <id>|all           regenerate a table/figure
//	greenfpga devices                       print the Table 3 catalog
//	greenfpga domains                       print the Table 2 testcases
//	greenfpga regions                       print the carbon-region registry
//	greenfpga crossover -domain DNN         solve A2F/F2A points
//	greenfpga fleet -domain DNN             carbon-aware placement study
//	greenfpga sweep -domain DNN -axis napps 1-D sweep with a chart
//	greenfpga timeline -domain DNN          time-phased deployment schedule
//	greenfpga run -config file.json         evaluate a JSON scenario
//	greenfpga mc -domain DNN                Monte-Carlo uncertainty
//	greenfpga serve -addr 127.0.0.1:8080    HTTP evaluation service
//	greenfpga job submit -base <url> ...    durable async studies on a -store service
//	greenfpga example-config                print a sample JSON config
//	greenfpga help                          print this usage
//
// Exit codes: 0 on success (including every help spelling), 1 on
// runtime failures, 2 on usage mistakes (unknown commands, bad flags,
// missing required arguments).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"greenfpga/api"
)

// evaluator runs every compute command (under context.Background()) —
// the methods the service runs per request, so -json output matches it.
var evaluator = api.NewEvaluator(64)

// commands dispatches subcommand names to implementations.
var commands = map[string]func(args []string) error{
	"list":           cmdList,
	"experiment":     cmdExperiment,
	"devices":        cmdDevices,
	"domains":        cmdDomains,
	"regions":        cmdRegions,
	"kernels":        cmdKernels,
	"fleet":          cmdFleet,
	"compare":        cmdCompare,
	"crossover":      cmdCrossover,
	"sweep":          cmdSweep,
	"timeline":       cmdTimeline,
	"run":            cmdRun,
	"plan":           cmdPlan,
	"dse":            cmdDSE,
	"mc":             cmdMC,
	"wafer":          cmdWafer,
	"serve":          cmdServe,
	"job":            cmdJob,
	"loadgen":        cmdLoadgen,
	"version":        cmdVersion,
	"validate":       cmdValidate,
	"example-config": cmdExampleConfig,
	"help":           cmdHelp,
}

// usageError marks a command-line usage mistake — an unknown flag, a
// missing required argument — as opposed to a runtime failure: run
// prints it to stderr (unless the flag package already did) and exits
// 2, the conventional usage-error status.
type usageError struct {
	err error
	// printed records that the flag set already wrote the message (and
	// its usage text) to stderr, so run must not repeat it.
	printed bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// usagef builds a usage error that run still needs to print.
func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// parseFlags parses a subcommand's flags, classifying parse failures
// as usage errors. flag.ErrHelp passes through so `greenfpga <cmd> -h`
// keeps exiting 0; ContinueOnError flag sets print their own message
// and usage to stderr, so the error is marked already-printed.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &usageError{err: err, printed: true}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one command line and returns the process exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage(os.Stderr)
		return 2
	}
	name := args[0]
	// Flag spellings of the help command succeed like the command.
	if name == "-h" || name == "--help" {
		name = "help"
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "greenfpga: unknown command %q\n\n", args[0])
		usage(os.Stderr)
		return 2
	}
	err := cmd(args[1:])
	if err == nil {
		return 0
	}
	// `greenfpga <cmd> -h` is a help request, not a failure: the flag
	// set already printed its usage.
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue *usageError
	if errors.As(err, &ue) {
		if !ue.printed {
			fmt.Fprintf(os.Stderr, "greenfpga: %v\n", err)
		}
		return 2
	}
	fmt.Fprintf(os.Stderr, "greenfpga: %v\n", err)
	return 1
}

// cmdHelp prints the top-level usage to stdout and succeeds — the
// `greenfpga help`, `-h` and `--help` spellings all land here.
func cmdHelp(args []string) error {
	usage(os.Stdout)
	return nil
}

// usage prints the top-level help.
func usage(w io.Writer) {
	fmt.Fprintln(w, `GreenFPGA: carbon-footprint assessment of FPGA vs ASIC computing (DAC'24)

commands:
  list [-json]                    list the paper-reproduction experiments
  experiment <id>|all             regenerate a paper table/figure
  devices [-json]                 print the industry device catalog (Table 3)
  domains [-json]                 print the iso-performance testcases (Table 2)
  regions [-json]                 print the carbon-region registry (scalar grid
                                  presets plus hourly-trace regions)
  kernels                         list the workload kernel library
  compare [-domain <name>]        N-platform comparison; -platforms mixes kinds
                                  and catalog devices, -fpga/-asic selects the
                                  catalog head-to-head instead
  crossover -domain <name>        solve the A2F/F2A crossover points
  fleet [-domain <name>]          carbon-aware placement study: platforms x
                                  regions siting matrix; -shift daily packs
                                  run-hours into each traced region's
                                  cleanest hours
  sweep -domain <name> -axis <a>  run a 1-D sweep (axes: napps, lifetime, volume);
                                  -platforms sweeps any kind/device set
  timeline [-domain <name>]       evaluate a time-phased deployment schedule
                                  (staggered arrivals, refresh policy, fleet sizing)
  run -config <file.json>         evaluate a custom scenario
  plan -config <file.json>        optimize a portfolio across FPGA fleet and ASICs
  dse -kernel <name>              carbon-aware design-space exploration
  mc -domain <name>               Monte-Carlo uncertainty over Table 1 ranges;
                                  -platforms picks the studied kind pair
  wafer [-device <name>]          wafer-level manufacturing economics
  serve [-addr host:port]         HTTP evaluation service (/v1/..., /healthz, /metrics);
                                  -access-log writes JSON access records,
                                  -pprof serves the profiler on a loopback port,
                                  -store <dir> persists results and enables /v1/jobs
  job <sub> -base <url>           async jobs on a -store service: submit, list,
                                  status, result, cancel ('job help' for details)
  loadgen -base <url>             closed-loop stepped load ramp against a running
                                  service; writes the BENCH_serve.json trajectory
  version                         print the build's version and VCS revision
  validate -config <file.json>    check a scenario JSON
  example-config                  print a sample scenario JSON
  help                            print this usage (also -h, --help)

The -json flags emit the canonical api documents, byte-identical to
the corresponding 'greenfpga serve' endpoints.`)
}
