package montecarlo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestUniformDist(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 6}
	if u.Mean() != 4 {
		t.Errorf("mean %g", u.Mean())
	}
	if u.Quantile(0) != 2 || u.Quantile(1) != 6 || u.Quantile(0.5) != 4 {
		t.Errorf("quantiles: %g %g %g", u.Quantile(0), u.Quantile(1), u.Quantile(0.5))
	}
	if u.Quantile(-1) != 2 || u.Quantile(2) != 6 {
		t.Error("quantile must clamp p")
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < 2 || v > 6 {
			t.Fatalf("sample %g outside range", v)
		}
	}
}

func TestTriangularDist(t *testing.T) {
	tri := Triangular{Lo: 0, Mode: 2, Hi: 10}
	if math.Abs(tri.Mean()-4) > 1e-12 {
		t.Errorf("mean %g", tri.Mean())
	}
	if tri.Quantile(0) != 0 || tri.Quantile(1) != 10 {
		t.Errorf("extreme quantiles: %g %g", tri.Quantile(0), tri.Quantile(1))
	}
	// CDF at the mode is (mode-lo)/(hi-lo) = 0.2.
	if math.Abs(tri.Quantile(0.2)-2) > 1e-9 {
		t.Errorf("quantile at mode: %g", tri.Quantile(0.2))
	}
	r := rand.New(rand.NewSource(2))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := tri.Sample(r)
		if v < 0 || v > 10 {
			t.Fatalf("sample %g outside range", v)
		}
		sum += v
	}
	if math.Abs(sum/n-4) > 0.1 {
		t.Errorf("empirical mean %g, want ~4", sum/n)
	}
	// Degenerate triangular collapses to a point.
	pt := Triangular{Lo: 5, Mode: 5, Hi: 5}
	if pt.Quantile(0.7) != 5 {
		t.Error("degenerate triangular")
	}
}

func TestFixedDist(t *testing.T) {
	f := Fixed(3.5)
	if f.Mean() != 3.5 || f.Quantile(0.9) != 3.5 || f.Sample(nil) != 3.5 {
		t.Error("fixed dist")
	}
}

func TestRunReproducible(t *testing.T) {
	cfg := Config{
		Params:  []Param{{Name: "a", Dist: Uniform{1, 3}}, {Name: "b", Dist: Uniform{0, 1}}},
		Samples: 500,
		Seed:    42,
		Model: func(d []float64) (float64, error) {
			return d[0] + 10*d[1], nil
		},
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mean != r2.Mean || r1.StdDev != r2.StdDev {
		t.Error("same seed must reproduce")
	}
	for i := range r1.Samples {
		if r1.Samples[i] != r2.Samples[i] {
			t.Fatal("sample streams differ")
		}
	}
	r3, _ := Run(Config{Params: cfg.Params, Samples: 500, Seed: 43, Model: cfg.Model})
	if r3.Mean == r1.Mean {
		t.Error("different seeds should differ")
	}
}

// TestRunIndependentOfWorkerCount pins GOMAXPROCS to 1 and asserts the
// serial run reproduces the parallel run bit-for-bit: the sample
// stream depends only on (seed, index), never on scheduling.
func TestRunIndependentOfWorkerCount(t *testing.T) {
	cfg := Config{
		Params:  []Param{{Name: "a", Dist: Uniform{1, 3}}, {Name: "b", Dist: Triangular{0, 1, 4}}},
		Samples: 2000,
		Seed:    11,
		Model: func(d []float64) (float64, error) {
			return d[0]*d[1] + d[0], nil
		},
	}
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, runErr := Run(cfg)
	runtime.GOMAXPROCS(prev)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if serial.Mean != parallel.Mean || serial.StdDev != parallel.StdDev {
		t.Errorf("statistics depend on worker count: %g/%g vs %g/%g",
			serial.Mean, serial.StdDev, parallel.Mean, parallel.StdDev)
	}
	for i := range serial.Samples {
		if serial.Samples[i] != parallel.Samples[i] {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}

// TestRunFirstErrorDeterministic asserts the engine reports the
// lowest-indexed failing draw regardless of scheduling.
func TestRunFirstErrorDeterministic(t *testing.T) {
	var calls atomic.Int64
	for trial := 0; trial < 5; trial++ {
		_, err := Run(Config{
			Params:  []Param{{Name: "a", Dist: Uniform{0, 1}}},
			Samples: 500,
			Seed:    3,
			Model: func(d []float64) (float64, error) {
				calls.Add(1)
				if d[0] > 0.5 {
					return 0, errors.New("boom")
				}
				return d[0], nil
			},
		})
		if err == nil {
			t.Fatal("expected a model error")
		}
		want := firstFailingDraw(t, 500, 3, 0.5)
		if !strings.Contains(err.Error(), fmt.Sprintf("sample %d:", want)) {
			t.Fatalf("trial %d: got %v, want sample %d", trial, err, want)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("model never ran")
	}
}

// firstFailingDraw replays the sub-seeded streams serially to find the
// lowest index whose draw exceeds the threshold.
func firstFailingDraw(t *testing.T, samples int, seed int64, threshold float64) int {
	t.Helper()
	u := Uniform{0, 1}
	src := &splitmix{}
	rng := rand.New(src)
	for i := 0; i < samples; i++ {
		src.state = subSeed(seed, i)
		if u.Sample(rng) > threshold {
			return i
		}
	}
	t.Fatal("no draw exceeds the threshold")
	return -1
}

func TestRunStatistics(t *testing.T) {
	// Output = a with a ~ U(0, 10): mean 5, p50 ~5, p10 ~1, p90 ~9.
	res, err := Run(Config{
		Params:  []Param{{Name: "a", Dist: Uniform{0, 10}}},
		Samples: 50000,
		Seed:    7,
		Model:   func(d []float64) (float64, error) { return d[0], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-5) > 0.1 {
		t.Errorf("mean %g", res.Mean)
	}
	if math.Abs(res.StdDev-10/math.Sqrt(12)) > 0.1 {
		t.Errorf("stddev %g", res.StdDev)
	}
	for _, c := range []struct{ p, want, tol float64 }{
		{50, 5, 0.15}, {10, 1, 0.15}, {90, 9, 0.15}, {0, res.Samples[0], 0}, {100, res.Samples[len(res.Samples)-1], 0},
	} {
		if got := res.Percentile(c.p); math.Abs(got-c.want) > c.tol+1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTornadoRanking(t *testing.T) {
	// Output = big + small: the wide parameter must rank first.
	res, err := Run(Config{
		Params: []Param{
			{Name: "small", Dist: Uniform{0, 1}},
			{Name: "big", Dist: Uniform{0, 100}},
		},
		Samples: 100,
		Seed:    1,
		Model: func(d []float64) (float64, error) {
			return d[0] + d[1], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tornado) != 2 || res.Tornado[0].Param != "big" {
		t.Errorf("tornado: %+v", res.Tornado)
	}
	if res.Tornado[0].Swing() <= res.Tornado[1].Swing() {
		t.Error("tornado not sorted by swing")
	}
	// Swing of "big" is the 10-90 band: 80.
	if math.Abs(res.Tornado[0].Swing()-80) > 1e-9 {
		t.Errorf("big swing %g, want 80", res.Tornado[0].Swing())
	}
}

func TestRunErrors(t *testing.T) {
	ok := func([]float64) (float64, error) { return 0, nil }
	cases := []Config{
		{Params: []Param{{Name: "a", Dist: Fixed(1)}}}, // nil model
		{Model: ok}, // no params
		{Model: ok, Params: []Param{{Name: "", Dist: Fixed(1)}}},                               // unnamed
		{Model: ok, Params: []Param{{Name: "a"}}},                                              // no dist
		{Model: ok, Params: []Param{{Name: "a", Dist: Fixed(1)}, {Name: "a", Dist: Fixed(2)}}}, // dup
		{Model: ok, Params: []Param{{Name: "a", Dist: Fixed(1)}}, Samples: -5},                 // negative
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	boom := errors.New("boom")
	_, err := Run(Config{
		Params: []Param{{Name: "a", Dist: Fixed(1)}},
		Model:  func([]float64) (float64, error) { return 0, boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("model error not propagated: %v", err)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var r Result
	if !math.IsNaN(r.Percentile(50)) {
		t.Error("empty result percentile must be NaN")
	}
}

// TestPercentileConstant checks that a constant sample reports its
// value at every percentile exactly: interpolating between equal
// neighbours must not round away from them.
func TestPercentileConstant(t *testing.T) {
	const v = 0.8135482354925111
	r := Result{Samples: make([]float64, 500)}
	for i := range r.Samples {
		r.Samples[i] = v
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if got := r.Percentile(p); got != v {
			t.Fatalf("P%g of a constant sample = %v, want %v", p, got, v)
		}
	}
}

// Property: percentiles are monotone in p and bounded by the sample
// extremes.
func TestQuickPercentileMonotone(t *testing.T) {
	res, err := Run(Config{
		Params:  []Param{{Name: "a", Dist: Uniform{-5, 5}}},
		Samples: 300,
		Seed:    9,
		Model:   func(d []float64) (float64, error) { return d[0] * d[0], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(p1, p2 float64) bool {
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if math.IsNaN(p1 + p2) {
			return true
		}
		lo, hi := math.Min(p1, p2), math.Max(p1, p2)
		a, b := res.Percentile(lo), res.Percentile(hi)
		return a <= b+1e-12 &&
			a >= res.Samples[0]-1e-12 && b <= res.Samples[len(res.Samples)-1]+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunRangeFinalizeMatchesRun pins the resume contract the jobs
// layer depends on: splitting a study into arbitrary index ranges,
// concatenating the chunk outputs in order, and Finalizing must be
// bit-for-bit identical to a one-shot Run — samples, moments,
// percentiles and tornado alike.
func TestRunRangeFinalizeMatchesRun(t *testing.T) {
	cfg := Config{
		Params:  []Param{{Name: "a", Dist: Uniform{1, 3}}, {Name: "b", Dist: Triangular{0, 1, 4}}},
		Samples: 1777,
		Seed:    77,
		Model: func(d []float64) (float64, error) {
			return d[0]*d[1] + d[0], nil
		},
	}
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uneven chunking on purpose: resume never sees tidy boundaries.
	var chunked []float64
	for lo := 0; lo < cfg.Samples; {
		hi := lo + 400
		if lo == 0 {
			hi = 13
		}
		if hi > cfg.Samples {
			hi = cfg.Samples
		}
		part, err := RunRange(cfg, lo, hi)
		if err != nil {
			t.Fatalf("RunRange(%d, %d): %v", lo, hi, err)
		}
		chunked = append(chunked, part...)
		lo = hi
	}
	res, err := Finalize(cfg, chunked)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != whole.Mean || res.StdDev != whole.StdDev {
		t.Errorf("moments differ: %g/%g vs %g/%g", res.Mean, res.StdDev, whole.Mean, whole.StdDev)
	}
	for i := range whole.Samples {
		if res.Samples[i] != whole.Samples[i] {
			t.Fatalf("sample %d differs after chunked evaluation", i)
		}
	}
	if len(res.Tornado) != len(whole.Tornado) {
		t.Fatalf("tornado lengths differ")
	}
	for i := range whole.Tornado {
		if res.Tornado[i] != whole.Tornado[i] {
			t.Fatalf("tornado entry %d differs", i)
		}
	}
}

// TestRunRangeBounds pins range validation.
func TestRunRangeBounds(t *testing.T) {
	cfg := Config{
		Params:  []Param{{Name: "a", Dist: Uniform{0, 1}}},
		Samples: 10,
		Model:   func(d []float64) (float64, error) { return d[0], nil },
	}
	for _, r := range [][2]int{{-1, 5}, {5, 4}, {0, 11}} {
		if _, err := RunRange(cfg, r[0], r[1]); err == nil {
			t.Errorf("RunRange(%d, %d) accepted", r[0], r[1])
		}
	}
	if _, err := Finalize(cfg, make([]float64, 9)); err == nil {
		t.Error("Finalize accepted a short sample vector")
	}
}

// TestValidateRejectsMalformedDists pins the distribution checks: a
// built-in distribution whose bounds are non-finite, reversed, or
// whose triangular mode lies outside them would sample outside its
// declared range (Triangular{0, 2, 1} draws up to sqrt(2)), so
// Validate rejects it; well-formed and degenerate ones pass.
func TestValidateRejectsMalformedDists(t *testing.T) {
	ok := func([]float64) (float64, error) { return 0, nil }
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name string
		dist Dist
		want string // error substring; "" means valid
	}{
		{"uniform", Uniform{Lo: 0, Hi: 1}, ""},
		{"uniform point", Uniform{Lo: 2, Hi: 2}, ""},
		{"triangular", Triangular{Lo: 0, Mode: 0.5, Hi: 1}, ""},
		{"triangular mode at lo", Triangular{Lo: 0, Mode: 0, Hi: 1}, ""},
		{"triangular mode at hi", Triangular{Lo: 0, Mode: 1, Hi: 1}, ""},
		{"triangular point", Triangular{Lo: 5, Mode: 5, Hi: 5}, ""},
		{"fixed", Fixed(-3), ""},
		{"nil", nil, "no distribution"},
		{"uniform reversed", Uniform{Lo: 1, Hi: 0}, "Lo above Hi"},
		{"triangular reversed", Triangular{Lo: 1, Mode: 0.5, Hi: 0}, "Lo above Hi"},
		{"triangular mode above hi", Triangular{Lo: 0, Mode: 2, Hi: 1}, "mode outside"},
		{"triangular mode below lo", Triangular{Lo: 0, Mode: -1, Hi: 1}, "mode outside"},
		{"uniform infinite hi", Uniform{Lo: 0, Hi: inf}, "non-finite"},
		{"uniform NaN lo", Uniform{Lo: nan, Hi: 1}, "non-finite"},
		{"triangular NaN mode", Triangular{Lo: 0, Mode: nan, Hi: 1}, "non-finite"},
		{"triangular infinite lo", Triangular{Lo: -inf, Mode: 0, Hi: 1}, "non-finite"},
		{"fixed infinite", Fixed(inf), "non-finite"},
		{"fixed NaN", Fixed(nan), "non-finite"},
	} {
		_, err := Validate(Config{Model: ok, Params: []Param{{Name: "a", Dist: c.dist}}})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
