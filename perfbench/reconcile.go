package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Reconciliation tolerances between a traced replay and the server's
// /metrics deltas over the same operations.
const (
	// tolHitRatio bounds |server - replay| for the result and
	// compiled-platform cache hit ratios.
	tolHitRatio = 0.05
	// tolStageCount bounds |server - replay| of each stage's
	// recordings per operation: the same requests must record the
	// same stages.
	tolStageCount = 0.01
	// tolStoreBytes bounds the fold between the server's and the
	// replay's store log growth per job.
	tolStoreBytes = 1.10
)

// tolStageFold bounds, per workload and stage, the fold between the
// server's and the replay's mean stage time (the larger over the
// smaller). The server's timers also hold socket reads and writes and
// waits for a CPU shared with the load generator, which the replay's
// do not, so the server's side runs slower, most of all on hit-floor
// whose requests do little else. Each bound is twice the largest fold
// seen over eleven traced runs per workload, rounded up to a half; a
// bound of 1 means neither side may time the stage.
var tolStageFold = map[string]map[string]float64{
	"hit-floor":  {"decode": 21.5, "resolve": 1, "compute": 1, "encode": 7},
	"cold-study": {"decode": 9.5, "resolve": 4.5, "compute": 5.5, "encode": 4.5},
}

// scrape is one parsed /metrics page: series (name plus labels, as
// exposed) to value.
type scrape map[string]float64

// scrapeMetrics fetches and parses the server's /metrics page.
func scrapeMetrics(c *client) (scrape, error) {
	r, err := c.do(http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", r.status)
	}
	s := scrape{}
	for _, l := range strings.Split(string(r.body), "\n") {
		if l == "" || l[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", l, err)
		}
		s[l[:i]] = v
	}
	return s, nil
}

// total sums the series of one metric whose labels contain every
// given label pair and not the excluded one.
func (s scrape) total(name, exclude string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		n, ls, _ := strings.Cut(k, "{")
		if n != name || (exclude != "" && strings.Contains(ls, exclude)) {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(ls, l)
		}
		if match {
			t += v
		}
	}
	return t
}

// serverDelta is what the server's /metrics moved by over the timed
// window. Means come from the histograms' exact _sum and _count
// series; no quantile is read from their buckets.
type serverDelta struct {
	requests   float64 // requests other than the /metrics scrapes
	requestSec float64
	stageN     map[string]float64
	stageSec   map[string]float64
	queueN     float64
	queueSec   float64
	rcHits     float64
	rcMisses   float64
	cpHits     float64
	cpMisses   float64
	chunks     float64
	storeBytes float64
}

var stageNames = []string{"decode", "resolve", "compute", "encode"}

func newServerDelta(a, b scrape) *serverDelta {
	d := func(name, exclude string, labels ...string) float64 {
		return b.total(name, exclude, labels...) - a.total(name, exclude, labels...)
	}
	const scrapes = `endpoint="/metrics"`
	sd := &serverDelta{
		requests:   d("greenfpga_request_duration_seconds_count", scrapes),
		requestSec: d("greenfpga_request_duration_seconds_sum", scrapes),
		stageN:     map[string]float64{},
		stageSec:   map[string]float64{},
		queueN:     d("greenfpga_queue_wait_seconds_count", ""),
		queueSec:   d("greenfpga_queue_wait_seconds_sum", ""),
		rcHits:     d("greenfpga_result_cache_hits_total", ""),
		rcMisses:   d("greenfpga_result_cache_misses_total", ""),
		cpHits:     d("greenfpga_compiled_platform_cache_hits_total", ""),
		cpMisses:   d("greenfpga_compiled_platform_cache_misses_total", ""),
		chunks:     d("greenfpga_job_chunks_total", "", `kind="computed"`),
		storeBytes: d("greenfpga_store_log_bytes", ""),
	}
	for _, s := range stageNames {
		l := `stage="` + s + `"`
		sd.stageN[s] = d("greenfpga_stage_duration_seconds_count", "", l)
		sd.stageSec[s] = d("greenfpga_stage_duration_seconds_sum", "", l)
	}
	return sd
}

// ratio is a/(a+b), or 1 when there were no lookups (nothing was
// wasted).
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

// perUS is sec/n in microseconds (0 when n is 0).
func perUS(sec, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sec / n * 1e6
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// foldOf is the larger of a and b over the smaller; when only one is
// zero it is the largest float, which fails every tolerance and still
// encodes as JSON.
func foldOf(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		if a == b {
			return 1
		}
		return math.MaxFloat64
	}
	return max(a/b, b/a)
}

// newCheck returns a check that reports one reconciliation as a
// recon.* metric, logging it when it falls outside its tolerance, and
// the flag that stays true while every check passes.
func newCheck(put func(string, float64), log io.Writer) (func(name string, v float64, pass bool), *bool) {
	ok := true
	return func(name string, v float64, pass bool) {
		put(name, v)
		if !pass {
			ok = false
			fmt.Fprintf(log, "reconciliation %s = %g outside its tolerance\n", name, v)
		}
	}, &ok
}

// reconcile compares the traced replay of the timed window's inputs
// with the server's /metrics deltas over that window: cache hit ratios
// and, per stage, recordings per operation and mean time.
func reconcile(w *workload, win *window, sd *serverDelta, rr *replayResult, check func(string, float64, bool)) {
	hitErr := math.Abs(ratio(sd.rcHits, sd.rcMisses) - rr.rcHit)
	check("recon.result_hit_ratio_err", hitErr, hitErr <= tolHitRatio)
	cpErr := math.Abs(ratio(sd.cpHits, sd.cpMisses) - rr.cpHit)
	check("recon.compiled_hit_ratio_err", cpErr, cpErr <= tolHitRatio)

	for _, s := range stageNames {
		acc := rr.stageOf(s)
		countErr := math.Abs(sd.stageN[s]/float64(win.ops) - float64(acc.n)/float64(rr.ops))
		check("recon.stage_count_err."+s, countErr, countErr <= tolStageCount)
		fold := 1.0 // neither side timed the stage
		if sd.stageN[s] > 0 || acc.n > 0 {
			fold = foldOf(perUS(sd.stageSec[s], sd.stageN[s]), us(acc.total)/float64(max(acc.n, 1)))
		}
		check("recon.stage_fold."+s, fold, fold <= tolStageFold[w.name][s])
	}
}

// reconcileJobs compares the jobs phase's /metrics deltas with the
// replay of the same operations: job chunks computed, exactly, and
// store log growth per operation.
func reconcileJobs(win *window, sd *serverDelta, rr *replayResult, check func(string, float64, bool)) {
	want := float64(win.ops) * float64(rr.chunks) / float64(rr.jobs)
	check("recon.job_chunks_err", math.Abs(sd.chunks-want), sd.chunks == want)
	fold := foldOf(sd.storeBytes/float64(win.ops), float64(rr.storeBytes)/float64(rr.ops))
	check("recon.store_bytes_fold", fold, fold <= tolStoreBytes)
}
