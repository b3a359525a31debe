// Command perfbench is the repository's benchmark. It runs the real
// `greenfpga serve` binary under one of two seeded workloads
// (hit-floor, cold-study), drives it from one process in a closed loop
// of two clients, checks every response, and prints one JSON result
// line last on stdout.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer split instead: the server's own
// /metrics deltas over the same timed window, plus an in-process
// replay of the same generated inputs through each layer's public
// functions, recorded as spans and reconciled with those deltas. The
// traced run also drives a short jobs phase against `serve -store`,
// replayed and reconciled the same way, for the store and jobs layers.
//
//	bash perfbench/run.sh --workload cold-study --seed 7 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/debug"
	"time"
)

// Set-up is measured setupBefore+1 times before the timed window (the
// last launch serves it) and setupAfter times after it, so the median
// samples the machine at both ends of the run.
const (
	setupBefore = 4
	setupAfter  = 6
)

// block is the slice of the timed window over which throughput and the
// median latency are taken. Each is reported as the median over the
// window's blocks, so a brief stall elsewhere on the machine moves one
// block, not the result.
const block = time.Second

// The tail is reported at the 90th percentile, not the 99th. On a
// shared 2-vCPU host, hit-floor's p99 measures the hypervisor rather
// than the program: per 1 s block it followed the guest's steal-time
// counter (correlation 0.82), and in one noisy phase it rose fivefold
// while throughput fell 40% and the 90th percentile rose 45%. The 90th
// percentile still tracks the program's tail (on cold-study it lies
// among the mc studies).
const tailQ = 0.90

// tailOps is how many operations a block must hold on average for its
// tailQ quantile to have ten samples beyond it; p90_ms is the median
// over blocks of the shortest whole number of seconds that holds them
// at the window's rate (1 s on both workloads).
const tailOps = 100

// tailBlock is the block length for the window's tail quantile.
func (w *window) tailBlock() time.Duration {
	if w.ops == 0 {
		return w.elapsed + time.Second // no full block
	}
	return time.Duration(math.Ceil(tailOps*w.elapsed.Seconds()/float64(w.ops))) * time.Second
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // the greenfpga binary
	root     string // the checkout; scratch lives under root/.bench_build
}

// endToEndUnits declares the untraced run's metrics — exactly
// BENCHMARK.json's end_to_end list — with their units.
var endToEndUnits = map[string]string{
	"throughput_rps": "1/s", "p50_ms": "ms", "p90_ms": "ms",
	"success_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The load generator's own garbage collection would land in the
// latencies it records: at hit-floor rates it collects several times a
// second, and on a shared host each collection's stop-the-world and
// worker wake-ups add host-dependent delays to the requests in flight
// (hit-floor's p99 ranged over 25% of its median across four runs with
// the default collector, 7% without). So the benchmark process collects
// only when its heap nears memoryLimit; the server keeps the runtime's
// defaults.
const memoryLimit = 256 << 20

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(memoryLimit)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: hit-floor or cold-study")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.bin, "bin", "", "greenfpga binary to serve")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.bin == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -bin, -seconds >= 1 and -trace 0|1")
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(&o, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one measured run of workload w.
func execute(o *options, w *workload, log io.Writer) (*result, error) {
	rd, err := newRunDir(o.root)
	if err != nil {
		return nil, err
	}
	defer rd.remove()

	l, err := newLauncher(o, w, rd)
	if err != nil {
		return nil, err
	}
	var setup []float64
	for i := 0; i < setupBefore; i++ {
		if err := l.probe(&setup); err != nil {
			return nil, err
		}
	}
	srv, c, refs, err := l.launch(&setup)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	check := checker(w, refs)
	res := &result{}
	warm := drive(c, w, 0, w.warm, 0, check)
	res.Attempted += warm.ops
	res.Failed += warm.failed

	var before scrape
	var cpu0 time.Duration
	if o.trace {
		if before, err = scrapeMetrics(c); err != nil {
			return nil, err
		}
		if cpu0, err = srv.cpuTime(); err != nil {
			return nil, err
		}
	}
	win := drive(c, w, w.warm, 0, time.Duration(o.seconds)*time.Second, check)
	res.Attempted += win.ops
	res.Failed += win.failed
	var after scrape
	var cpu1 time.Duration
	if o.trace {
		if after, err = scrapeMetrics(c); err != nil {
			return nil, err
		}
		if cpu1, err = srv.cpuTime(); err != nil {
			return nil, err
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if err := gateHeadline(c); err != nil {
		res.Failed++
		fmt.Fprintln(log, "headline gate:", err)
	}
	c.close()
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	for i := 0; i < setupAfter; i++ {
		if err := l.probe(&setup); err != nil {
			return nil, err
		}
	}
	bad, gerr := gateKept(w, win.kept)
	res.Failed += bad
	for _, e := range []error{warm.firstErr, win.firstErr, gerr} {
		if e != nil {
			fmt.Fprintln(log, "gate:", e)
		}
	}

	fmt.Fprintf(log, "%s seed=%d: %d ops in %.2fs, %d failed, %d kept responses recomputed; set-up %.4f s\n",
		w.name, w.seed, win.ops, win.elapsed.Seconds(), win.failed, len(win.kept), setup)
	rps, p50 := win.blocks(block, 0.5)
	_, tail := win.blocks(win.tailBlock(), tailQ)
	if len(tail) == 0 { // a window shorter than one tail block
		tail = []float64{ms(percentile(win.lat, tailQ))}
	}
	fmt.Fprintf(log, "per-block ops/s %.0f\nper-block p90 ms %.3f\nlatency deciles ms:", rps, tail)
	for q := 0.1; q < 0.95; q += 0.1 {
		fmt.Fprintf(log, " %.3f", ms(percentile(win.lat, q)))
	}
	fmt.Fprintln(log)
	if !o.trace {
		res.Metrics = map[string]metric{}
		for name, v := range map[string]float64{
			"throughput_rps": median(rps),
			"p50_ms":         median(p50),
			"p90_ms":         median(tail),
			"success_ratio":  float64(res.Attempted-res.Failed) / float64(res.Attempted),
			"setup_s":        median(setup),
			"peak_rss_mb":    rss,
		} {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
		res.Correct = res.Failed == 0
		return res, nil
	}
	lm, reconciled, err := layerMetrics(o, w, rd, win, before, after, cpu1-cpu0, res, log)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	res.Correct = reconciled && res.Failed == 0
	return res, nil
}

// launcher sets the server up from exec to ready: listening, healthy
// and primed — for a workload with a store over a fresh copy of the
// seed's store history, so set-up includes its replay.
type launcher struct {
	o       *options
	w       *workload
	rd      *runDir
	history string // store history template ("" without a store)
	n       int    // launches so far
}

func newLauncher(o *options, w *workload, rd *runDir) (*launcher, error) {
	l := &launcher{o: o, w: w, rd: rd}
	if w.store {
		l.history = rd.sub("history")
		if err := writeHistory(l.history, w.seed); err != nil {
			return nil, fmt.Errorf("writing store history: %w", err)
		}
	}
	return l, nil
}

// launch sets a server up, appends the set-up time in seconds to
// *times and returns the server with a client and the primed response
// bodies by endpoint name.
func (l *launcher) launch(times *[]float64) (*serverProc, *client, map[string][]byte, error) {
	dir := ""
	if l.history != "" {
		dir = l.rd.sub(fmt.Sprintf("store-%d", l.n))
		if err := copyDir(l.history, dir); err != nil {
			return nil, nil, nil, err
		}
	}
	l.n++
	t0 := time.Now()
	srv, err := startServer(l.o.bin, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	c := newClient(srv.base)
	refs, err := prime(c, l.w)
	if err != nil {
		c.close()
		srv.kill()
		return nil, nil, nil, err
	}
	*times = append(*times, time.Since(t0).Seconds())
	return srv, c, refs, nil
}

// probe launches a server only to time its set-up, then stops it.
func (l *launcher) probe(times *[]float64) error {
	srv, c, _, err := l.launch(times)
	if err != nil {
		return err
	}
	c.close()
	return srv.stop()
}

// prime checks health and issues the workload's priming operations.
func prime(c *client, w *workload) (map[string][]byte, error) {
	r, err := c.do(http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", r.status)
	}
	refs := map[string][]byte{}
	for _, p := range w.prime {
		r := c.run(p, nil)
		if r.err != nil {
			return nil, fmt.Errorf("priming %s: %w", p.ep.name, r.err)
		}
		refs[p.ep.name] = r.body
	}
	return refs, nil
}
