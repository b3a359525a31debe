package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"greenfpga/internal/server"
	"greenfpga/internal/store"
)

// cmdServe runs the HTTP evaluation service until SIGINT/SIGTERM,
// then drains in-flight requests and exits cleanly.
//
// Endpoints (see DESIGN.md "Service architecture"):
//
//	GET  /healthz                liveness
//	GET  /metrics                Prometheus counters (cache hits, ...)
//	GET  /v1/devices             Table 3 catalog
//	GET  /v1/domains             Table 2 testcases
//	GET  /v1/regions             carbon-region registry (scalar + traced)
//	GET  /v1/experiments         paper-artifact registry
//	GET  /v1/experiments/{id}    one artifact (?format=json|text|markdown|csv)
//	POST /v1/evaluate            evaluate a {"scenario": ...} document
//	POST /v1/evaluate/batch      evaluate many scenarios in one call
//	POST /v1/compare             N-platform domain-set comparison
//	POST /v1/timeline            time-phased deployment schedule
//	POST /v1/crossover           solve the A2F/F2A crossover points
//	POST /v1/sweep               run a 1-D domain sweep
//	POST /v1/mc                  Monte-Carlo uncertainty study
//	POST /v1/fleet               carbon-aware placement study
//
// With -store, results persist across restarts and the asynchronous
// job endpoints come up (see DESIGN.md "Jobs and durability"):
//
//	POST   /v1/jobs              submit a compute request as a job (202)
//	GET    /v1/jobs              list jobs, newest first
//	GET    /v1/jobs/{id}         poll one job's state and progress
//	GET    /v1/jobs/{id}/result  fetch a done job's result
//	                             (?format=ndjson streams sweep points)
//	DELETE /v1/jobs/{id}         cancel and remove a job
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	maxConcurrent := fs.Int("max-concurrent", 64, "compute requests evaluated at once")
	cacheEntries := fs.Int("cache", 1024, "content-addressed result cache entries")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	timeout := fs.Duration("timeout", 30*time.Second,
		"per-request compute deadline: overruns answer 504 deadline_exceeded (0 disables)")
	endpointTimeouts := fs.String("endpoint-timeouts", "",
		"per-endpoint deadline overrides, comma-separated path=duration (e.g. /v1/mc=2m,/v1/sweep=1m)")
	maxQueueWait := fs.Duration("max-queue-wait", 2*time.Second,
		"longest a request may queue for an evaluation slot before being shed with 503 + Retry-After (0 sheds immediately when saturated)")
	accessLog := fs.String("access-log", "",
		"write one-line JSON access records to this file ('-' for stderr); the first line identifies the build")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof on this address (loopback only, e.g. 127.0.0.1:6060; port 0 picks one)")
	storeDir := fs.String("store", "",
		"durable store directory: results persist across restarts and /v1/jobs accepts resumable async studies")
	jobWorkers := fs.Int("job-workers", 1, "jobs run concurrently (with -store)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	overrides, err := parseEndpointTimeouts(*endpointTimeouts)
	if err != nil {
		return usagef("bad -endpoint-timeouts: %v", err)
	}
	reqTimeout := *timeout
	if reqTimeout == 0 {
		reqTimeout = -1 // Options: 0 means default, negative disables.
	}
	queueWait := *maxQueueWait
	if queueWait == 0 {
		// Options treat 0 as "default": an explicit 0 means shed as
		// soon as the limiter is saturated.
		queueWait = time.Nanosecond
	}
	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open -access-log: %w", err)
		}
		defer f.Close()
		accessW = f
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("open -store: %w", err)
		}
		// Closed after Shutdown: the jobs manager checkpoints in-flight
		// studies into it while draining.
		defer st.Close()
	}
	srv, err := server.New(server.Options{
		Addr:             *addr,
		MaxConcurrent:    *maxConcurrent,
		CacheEntries:     *cacheEntries,
		RequestTimeout:   reqTimeout,
		EndpointTimeouts: overrides,
		MaxQueueWait:     queueWait,
		AccessLog:        accessW,
		PprofAddr:        *pprofAddr,
		Store:            st,
		JobWorkers:       *jobWorkers,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start()
	if err != nil {
		return err
	}
	// The first output line carries the bound address so scripts (and
	// the CI smoke job) can discover an ephemeral port.
	fmt.Printf("listening on http://%s\n", bound)
	if pa := srv.PprofAddr(); pa != "" {
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pa)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case got := <-sig:
		fmt.Printf("received %s, draining\n", got)
	case err := <-srv.Done():
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-srv.Done(); err != nil {
		return err
	}
	fmt.Println("shutdown complete")
	return nil
}

// parseEndpointTimeouts parses the -endpoint-timeouts value: a
// comma-separated list of path=duration overrides, each naming a route
// that carries a deadline (a typo would otherwise be silently ignored).
func parseEndpointTimeouts(s string) (map[string]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	routes := server.DeadlineRoutes()
	out := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		path, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || path == "" {
			return nil, fmt.Errorf("entry %q is not path=duration", part)
		}
		if !slices.Contains(routes, path) {
			return nil, fmt.Errorf("entry %q: %s is not a route with a deadline (valid: %s)",
				part, path, strings.Join(routes, ", "))
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %v", part, err)
		}
		out[path] = d
	}
	return out, nil
}
