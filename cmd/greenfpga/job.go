package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"greenfpga/api"
	"greenfpga/client"
)

// cmdJob drives the asynchronous job surface of a running service
// (one started with `greenfpga serve -store <dir>`): submit a compute
// request as a durable, resumable job, poll or wait it out, fetch its
// result, cancel it. Results are byte-identical to the synchronous
// endpoints' responses for the same request — a job is the same
// computation, checkpointed so it survives restarts.
func cmdJob(args []string) error {
	if len(args) < 1 {
		return usagef("job: need a subcommand: submit, list, status, result, cancel")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		return cmdJobSubmit(rest)
	case "list":
		return cmdJobList(rest)
	case "status":
		return cmdJobStatus(rest)
	case "result":
		return cmdJobResult(rest)
	case "cancel":
		return cmdJobCancel(rest)
	case "help", "-h", "--help":
		fmt.Printf(`usage: greenfpga job <subcommand> [flags]

subcommands:
  submit -base <url> -endpoint <name> [-request <json>|-request-file <f>] [-wait]
                                  submit a compute request as an async job;
                                  endpoints: %s
  list   -base <url>              list the service's jobs, newest first
  status -base <url> -id <id>     poll one job's state and chunk progress
  result -base <url> -id <id>     print a done job's response document
  cancel -base <url> -id <id>     cancel a job and remove its record

The service must run with -store: jobs checkpoint into the durable
store and resume across restarts.
`, strings.Join(api.EndpointNames(), ", "))
		return nil
	default:
		return usagef("job: unknown subcommand %q (submit, list, status, result, cancel)", sub)
	}
}

// jobClient builds the service client shared by the subcommands.
func jobClient(base string) (*client.Client, error) {
	if base == "" {
		return nil, usagef("job: -base is required (a service started with 'greenfpga serve -store <dir>')")
	}
	return client.New(base, client.WithRetry(client.RetryPolicy{})), nil
}

// printDoc writes v as canonical JSON to stdout.
func printDoc(v any) error { return api.WriteJSON(os.Stdout, v) }

func cmdJobSubmit(args []string) error {
	fs := flag.NewFlagSet("job submit", flag.ContinueOnError)
	base := fs.String("base", "", "service base URL (required)")
	endpoint := fs.String("endpoint", "", "compute endpoint to run (required; e.g. mc, sweep, evaluate)")
	request := fs.String("request", "", "inline request JSON (default: {})")
	requestFile := fs.String("request-file", "", "read the request JSON from this file ('-' for stdin)")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal state, then print it")
	poll := fs.Duration("poll", 250*time.Millisecond, "poll interval with -wait")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *endpoint == "" {
		return usagef("job submit: -endpoint is required")
	}
	if *request != "" && *requestFile != "" {
		return usagef("job submit: -request and -request-file are mutually exclusive")
	}
	raw := json.RawMessage("{}")
	switch {
	case *request != "":
		raw = json.RawMessage(*request)
	case *requestFile == "-":
		data, err := readAllStdin()
		if err != nil {
			return err
		}
		raw = data
	case *requestFile != "":
		data, err := os.ReadFile(*requestFile)
		if err != nil {
			return err
		}
		raw = data
	}
	c, err := jobClient(*base)
	if err != nil {
		return err
	}
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, *endpoint, raw)
	if err != nil {
		return err
	}
	if !*wait {
		return printDoc(st)
	}
	fmt.Fprintf(os.Stderr, "job %s submitted (%d chunks); waiting\n", st.ID, st.Chunks)
	fin, err := c.WaitJob(ctx, st.ID, *poll)
	if err != nil {
		return err
	}
	if err := printDoc(fin); err != nil {
		return err
	}
	if fin.State != "done" {
		return fmt.Errorf("job %s ended %s", fin.ID, fin.State)
	}
	return nil
}

// readAllStdin slurps stdin for -request-file -.
func readAllStdin() ([]byte, error) {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, fmt.Errorf("job submit: reading stdin: %w", err)
	}
	return data, nil
}

func cmdJobList(args []string) error {
	fs := flag.NewFlagSet("job list", flag.ContinueOnError)
	base := fs.String("base", "", "service base URL (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	c, err := jobClient(*base)
	if err != nil {
		return err
	}
	list, err := c.Jobs(context.Background())
	if err != nil {
		return err
	}
	return printDoc(list)
}

// jobID extracts the -id flag shared by status/result/cancel.
func jobID(name string, args []string) (base, id string, err error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	baseF := fs.String("base", "", "service base URL (required)")
	idF := fs.String("id", "", "job ID (required; from 'job submit')")
	if err := parseFlags(fs, args); err != nil {
		return "", "", err
	}
	if *idF == "" {
		return "", "", usagef("%s: -id is required", name)
	}
	return *baseF, *idF, nil
}

func cmdJobStatus(args []string) error {
	base, id, err := jobID("job status", args)
	if err != nil {
		return err
	}
	c, err := jobClient(base)
	if err != nil {
		return err
	}
	st, err := c.Job(context.Background(), id)
	if err != nil {
		return err
	}
	return printDoc(st)
}

func cmdJobResult(args []string) error {
	base, id, err := jobID("job result", args)
	if err != nil {
		return err
	}
	c, err := jobClient(base)
	if err != nil {
		return err
	}
	var raw json.RawMessage
	if err := c.JobResult(context.Background(), id, &raw); err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}

func cmdJobCancel(args []string) error {
	base, id, err := jobID("job cancel", args)
	if err != nil {
		return err
	}
	c, err := jobClient(base)
	if err != nil {
		return err
	}
	if err := c.CancelJob(context.Background(), id); err != nil {
		return err
	}
	fmt.Printf("job %s canceled\n", id)
	return nil
}
