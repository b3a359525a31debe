package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greenfpga/api"
)

// seeded lists the timed workloads and the traced run's jobs phase.
var seeded = map[string]func(uint64) *workload{
	"hit-floor": hitFloor, "cold-study": coldStudy, "jobs-phase": durableJobs,
}

// sequence renders the first n operations of a workload.
func sequence(t *testing.T, name string, seed uint64, n int) []string {
	t.Helper()
	w := seeded[name](seed)
	out := make([]string, n)
	for i := range out {
		o := w.op(uint64(i))
		out[i] = o.ep.path + " " + string(o.body)
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for name := range seeded {
		a, b := sequence(t, name, 7, 200), sequence(t, name, 7, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two builds of seed 7", name, i)
			}
		}
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	for name := range seeded {
		a, b := sequence(t, name, 7, 200), sequence(t, name, 8, 200)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give the same 200 operations", name)
		}
	}
}

func TestDealKeepsMixProportions(t *testing.T) {
	for seed := uint64(1); seed < 5; seed++ {
		counts := map[string]int{}
		for n := uint64(0); n < uint64(len(coldMix))*50; n++ {
			counts[deal(seed, n, coldMix)]++
		}
		if counts["evaluate"] != 200 || counts["mc"] != 50 || counts["fleet"] != 50 {
			t.Errorf("seed %d: 50 decks dealt %v, want evaluate 200 and 50 of each other type", seed, counts)
		}
	}
}

// keys returns the content addresses of the first n operations.
func keys(t *testing.T, w *workload, n int) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for i := 0; i < n; i++ {
		o := w.op(w.warm + uint64(i))
		req, err := o.ep.decode(o.body)
		if err != nil {
			t.Fatal(err)
		}
		k, err := api.CanonicalKey(o.ep.path, o.ep.normalize(req))
		if err != nil {
			t.Fatal(err)
		}
		out[k] = true
	}
	return out
}

func TestWorkingSets(t *testing.T) {
	if got := len(keys(t, hitFloor(3), 500)); got != len(endpointOrder) {
		t.Errorf("hit-floor working set is %d keys, want the %d fixed bodies", got, len(endpointOrder))
	}
	// Every cold-study request is a fresh content address, and a run's
	// requests outnumber the result LRU.
	if got := len(keys(t, coldStudy(3), 2*resultCacheEntries)); got != 2*resultCacheEntries {
		t.Errorf("cold-study: %d distinct keys in %d operations", got, 2*resultCacheEntries)
	}
	if got := len(keys(t, durableJobs(3), 100)); got != 100 {
		t.Errorf("durable-jobs: %d distinct keys in 100 operations", got)
	}
}

func TestEachRunGetsAFreshDirectoryRemovedAfterwards(t *testing.T) {
	root := t.TempDir()
	a, err := newRunDir(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRunDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if a.path == b.path {
		t.Fatalf("two runs share %s", a.path)
	}
	for _, d := range []*runDir{a, b} {
		if !strings.HasPrefix(d.path, filepath.Join(root, ".bench_build")) {
			t.Errorf("run directory %s is outside the checkout's .bench_build", d.path)
		}
		ents, err := os.ReadDir(d.path)
		if err != nil || len(ents) != 0 {
			t.Errorf("run directory %s is not fresh: %v %v", d.path, ents, err)
		}
	}
	if err := writeHistory(a.sub("history"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(a.path); !os.IsNotExist(err) {
		t.Errorf("run directory %s survives its run: %v", a.path, err)
	}
}

func TestHistoryIsSeedDetermined(t *testing.T) {
	read := func(seed uint64) []byte {
		dir := t.TempDir()
		if err := writeHistory(dir, seed); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "greenfpga.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := read(5), read(5), read(6)
	if !bytes.Equal(a, b) {
		t.Error("seed 5 wrote two different histories")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 5 and 6 wrote the same history")
	}
}

func TestPercentilesComeFromRawSamples(t *testing.T) {
	// 98 fast samples and two slow ones: the nearest-rank p99 is the
	// 99th sample exactly, which no bucket interpolation reproduces.
	var s []time.Duration
	for i := 0; i < 98; i++ {
		s = append(s, time.Duration(i+1)*time.Microsecond)
	}
	s = append(s, 7013*time.Microsecond, 9001*time.Microsecond)
	if got := percentile(s, 0.99); got != 7013*time.Microsecond {
		t.Errorf("p99 = %v, want the 99th raw sample 7.013ms", got)
	}
	if got := percentile(s, 0.50); got != 50*time.Microsecond {
		t.Errorf("p50 = %v, want the 50th raw sample 50µs", got)
	}
}

func TestServerDeltaReadsNoBuckets(t *testing.T) {
	page := func(bucket float64) scrape {
		return scrape{
			`greenfpga_stage_duration_seconds_bucket{stage="decode",le="0.001"}`: bucket,
			`greenfpga_stage_duration_seconds_sum{stage="decode"}`:               0.5,
			`greenfpga_stage_duration_seconds_count{stage="decode"}`:             100,
		}
	}
	a := newServerDelta(scrape{}, page(10))
	b := newServerDelta(scrape{}, page(90))
	if a.stageSec["decode"] != b.stageSec["decode"] || a.stageN["decode"] != b.stageN["decode"] {
		t.Error("server deltas moved with a bucket count")
	}
	if got := perUS(a.stageSec["decode"], a.stageN["decode"]); got != 5000 {
		t.Errorf("decode mean = %gµs, want 5000µs from _sum/_count", got)
	}
	// No source file of the benchmark reads a quantile off a histogram.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(".Quantile(")) || bytes.Contains(b, []byte(`_bucket`)) {
			t.Errorf("%s reads histogram buckets", f)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
	}}
	if got := tr.summarize()["parent"].self; got != 50 {
		t.Errorf("parent self time = %d, want 100 - (40 + 10) = 50", got)
	}
}

func TestBlocksDropTheTailAndTakeMedians(t *testing.T) {
	w := &window{elapsed: 3500 * time.Millisecond}
	for i := 0; i < 30; i++ {
		w.end = append(w.end, time.Duration(i)*100*time.Millisecond+time.Millisecond)
		w.lat = append(w.lat, time.Duration(i%10+1)*time.Millisecond)
	}
	w.end = append(w.end, 3400*time.Millisecond) // in the partial block
	w.lat = append(w.lat, time.Second)
	rps, p50 := w.blocks(time.Second, 0.5)
	if len(rps) != 3 || rps[0] != 10 || rps[2] != 10 {
		t.Errorf("block rates = %v, want three full blocks of 10/s", rps)
	}
	if p50[1] != 5 {
		t.Errorf("block p50s = %v, want 5ms", p50)
	}
}

func TestTailBlockHoldsATailOfTenSamples(t *testing.T) {
	for _, c := range []struct {
		ops  int
		want time.Duration
	}{{450000, time.Second}, {13500, time.Second}, {1350, 4 * time.Second}, {0, 46 * time.Second}} {
		w := &window{ops: c.ops, elapsed: 45 * time.Second}
		if got := w.tailBlock(); got != c.want {
			t.Errorf("%d ops in 45s: tail block %v, want %v", c.ops, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []named, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", what, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the code emits %q", what, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndUnits)
	same("per_layer", doc.PerLayer, perLayerUnits)
	for i, w := range doc.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the code has %v", i, w.Name, workloadNames)
		}
	}

	// metrics.json maps every per-layer metric to its layer.
	b, err = os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		Metrics []struct{ Metric, Layer string }
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, m := range layers.Metrics {
		mapped[m.Metric] = true
	}
	for name := range perLayerUnits {
		if !mapped[name] {
			t.Errorf("metrics.json does not map %s to a layer", name)
		}
	}
}

func TestFoldOf(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{2, 8, 4}, {8, 2, 4}, {3, 3, 1}, {0, 0, 1}, {0, 5, math.MaxFloat64},
	} {
		if got := foldOf(c.a, c.b); got != c.want {
			t.Errorf("foldOf(%g, %g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestEveryStageHasAFoldBound(t *testing.T) {
	for _, w := range workloadNames {
		for _, s := range stageNames {
			if tol := tolStageFold[w][s]; tol < 1 {
				t.Errorf("%s %s: fold bound %v, want at least 1", w, s, tol)
			}
		}
	}
}
