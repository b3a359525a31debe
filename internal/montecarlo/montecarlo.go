// Package montecarlo propagates input-parameter uncertainty through
// the GreenFPGA models. The paper's §5 stresses that its outputs are
// only as accurate as coarse, partly proprietary inputs (Table 1 lists
// ranges, not values); this package quantifies that: draw parameters
// from their ranges, evaluate the model, and report percentiles plus a
// tornado-style sensitivity ranking.
//
// All randomness is seeded, so runs are exactly reproducible: every
// draw derives its own sub-seed from the study seed and its index, and
// draws are evaluated in parallel without changing any result. Note
// that the seed-to-stream mapping changed when the engine moved from a
// single sequential generator to per-draw sub-seeds: a Config.Seed
// reproduces results within this engine, not numbers recorded with the
// earlier sequential one.
package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"greenfpga/internal/pool"
)

// Dist is a one-dimensional parameter distribution.
type Dist interface {
	// Sample draws one value.
	Sample(r *rand.Rand) float64
	// Quantile inverts the CDF at p in [0,1].
	Quantile(p float64) float64
	// Mean is the distribution mean.
	Mean() float64
}

// Uniform is the flat distribution on [Lo, Hi] — the natural reading
// of Table 1's ranges.
type Uniform struct {
	// Lo and Hi bound the range.
	Lo, Hi float64
}

// Sample draws uniformly.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Quantile inverts the CDF.
func (u Uniform) Quantile(p float64) float64 { return u.Lo + clamp01(p)*(u.Hi-u.Lo) }

// Mean is the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Triangular is the triangular distribution on [Lo, Hi] with the given
// Mode — useful when a nominal value is known inside a range.
type Triangular struct {
	// Lo, Mode and Hi are the minimum, peak and maximum.
	Lo, Mode, Hi float64
}

// Sample draws by inverse CDF.
func (t Triangular) Sample(r *rand.Rand) float64 { return t.Quantile(r.Float64()) }

// Quantile inverts the CDF.
func (t Triangular) Quantile(p float64) float64 {
	p = clamp01(p)
	if t.Hi == t.Lo {
		return t.Lo
	}
	fc := (t.Mode - t.Lo) / (t.Hi - t.Lo)
	if p < fc {
		return t.Lo + math.Sqrt(p*(t.Hi-t.Lo)*(t.Mode-t.Lo))
	}
	return t.Hi - math.Sqrt((1-p)*(t.Hi-t.Lo)*(t.Hi-t.Mode))
}

// Mean is (Lo+Mode+Hi)/3.
func (t Triangular) Mean() float64 { return (t.Lo + t.Mode + t.Hi) / 3 }

// Fixed is a degenerate point distribution.
type Fixed float64

// Sample always returns the value.
func (f Fixed) Sample(*rand.Rand) float64 { return float64(f) }

// Quantile always returns the value.
func (f Fixed) Quantile(float64) float64 { return float64(f) }

// Mean is the value.
func (f Fixed) Mean() float64 { return float64(f) }

// Param is a named uncertain input.
type Param struct {
	// Name labels the parameter in the tornado ranking; the model reads
	// the parameter's value at its index in Config.Params, not by name.
	Name string
	// Dist is the parameter's distribution.
	Dist Dist
}

// Model evaluates the quantity of interest for one parameter draw:
// draw[i] is the value of Config.Params[i]. Run invokes it from
// multiple goroutines concurrently (one draw per call, each worker
// with its own slice), so the function must be safe for concurrent
// use: don't mutate captured state without synchronization, and don't
// retain or modify the draw slice past the call.
type Model func(draw []float64) (float64, error)

// Config describes one Monte-Carlo study.
type Config struct {
	// Params are the uncertain inputs.
	Params []Param
	// Samples is the number of draws (default 1000).
	Samples int
	// Seed makes the run reproducible: results depend only on the
	// seed, never on scheduling or worker count.
	Seed int64
	// Model maps a draw to the output quantity. It is called
	// concurrently; see Model.
	Model Model
}

// Sensitivity is one tornado-chart entry.
type Sensitivity struct {
	// Param is the input name.
	Param string
	// Low and High are the model outputs with the parameter pinned at
	// its 10th and 90th percentile (all others at their means).
	Low, High float64
}

// Swing is the absolute output range attributable to the parameter.
func (s Sensitivity) Swing() float64 { return math.Abs(s.High - s.Low) }

// Result summarizes a study.
type Result struct {
	// Samples are the sorted model outputs.
	Samples []float64
	// Mean and StdDev summarize the outputs.
	Mean, StdDev float64
	// Tornado ranks parameters by swing, largest first.
	Tornado []Sensitivity
}

// Percentile interpolates the p-th percentile (p in [0,100]).
func (r Result) Percentile(p float64) float64 {
	if len(r.Samples) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return r.Samples[0]
	}
	if p >= 100 {
		return r.Samples[len(r.Samples)-1]
	}
	pos := p / 100 * float64(len(r.Samples)-1)
	i := int(pos)
	frac := pos - float64(i)
	// Equal neighbours are returned as they are: the weighted sum can
	// miss their common value by an ulp.
	if i+1 >= len(r.Samples) || r.Samples[i] == r.Samples[i+1] {
		return r.Samples[i]
	}
	return r.Samples[i]*(1-frac) + r.Samples[i+1]*frac
}

// Validate checks the study configuration and returns the effective
// sample count (the default applied when Samples is zero).
func Validate(cfg Config) (int, error) {
	if cfg.Model == nil {
		return 0, fmt.Errorf("montecarlo: nil model")
	}
	if len(cfg.Params) == 0 {
		return 0, fmt.Errorf("montecarlo: no parameters")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Params {
		if p.Name == "" {
			return 0, fmt.Errorf("montecarlo: unnamed parameter")
		}
		if err := checkDist(p.Dist); err != nil {
			return 0, fmt.Errorf("montecarlo: parameter %q: %w", p.Name, err)
		}
		if seen[p.Name] {
			return 0, fmt.Errorf("montecarlo: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
	}
	samples := cfg.Samples
	if samples == 0 {
		samples = 1000
	}
	if samples < 0 {
		return 0, fmt.Errorf("montecarlo: negative sample count %d", samples)
	}
	return samples, nil
}

// checkDist rejects a missing distribution and a malformed built-in
// one, whose samples would fall outside its declared range: a
// non-finite bound, Lo > Hi, or a triangular mode outside [Lo, Hi].
func checkDist(d Dist) error {
	var lo, mode, hi float64
	switch d := d.(type) {
	case nil:
		return fmt.Errorf("no distribution")
	case Fixed:
		lo, mode, hi = float64(d), float64(d), float64(d)
	case Uniform:
		lo, mode, hi = d.Lo, d.Lo, d.Hi
	case Triangular:
		lo, mode, hi = d.Lo, d.Mode, d.Hi
	default:
		return nil
	}
	for _, b := range [...]float64{lo, mode, hi} {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("non-finite bound in %T %+v", d, d)
		}
	}
	if lo > hi {
		return fmt.Errorf("Lo above Hi in %T %+v", d, d)
	}
	if mode < lo || mode > hi {
		return fmt.Errorf("mode outside [Lo, Hi] in %T %+v", d, d)
	}
	return nil
}

// Run executes the study.
func Run(cfg Config) (Result, error) {
	samples, err := Validate(cfg)
	if err != nil {
		return Result{}, err
	}
	// Each draw runs against its own sub-seeded generator, so the
	// sample stream depends only on (seed, index) and the draws can be
	// evaluated by a worker pool in any order.
	out := make([]float64, samples)
	if err := evalDraws(cfg, 0, out); err != nil {
		return Result{}, err
	}
	return Finalize(cfg, out)
}

// RunRange evaluates draws [lo, hi) of the study and returns their
// outputs in index order: out[i] is draw lo+i. Because every draw is
// sub-seeded from (cfg.Seed, index), a range evaluation is bit-
// identical to the same indices of a full Run — the primitive that
// lets the jobs layer checkpoint a study in chunks and resume it after
// a crash without perturbing a single sample.
func RunRange(cfg Config, lo, hi int) ([]float64, error) {
	samples, err := Validate(cfg)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > samples {
		return nil, fmt.Errorf("montecarlo: draw range [%d, %d) outside [0, %d)", lo, hi, samples)
	}
	out := make([]float64, hi-lo)
	if err := evalDraws(cfg, lo, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Finalize turns the index-ordered draw outputs (a full Run's, or
// RunRange chunks concatenated in index order) into a Result. The
// statistics are accumulated sequentially over the index order before
// sorting, so chunked-then-finalized studies are bit-for-bit identical
// to Run: same sums, same percentiles, same tornado. samples is sorted
// in place and retained by the Result.
func Finalize(cfg Config, samples []float64) (Result, error) {
	want, err := Validate(cfg)
	if err != nil {
		return Result{}, err
	}
	if len(samples) != want {
		return Result{}, fmt.Errorf("montecarlo: finalizing %d outputs for a %d-sample study", len(samples), want)
	}
	res := Result{Samples: samples}
	var sum, sumSq float64
	for _, v := range res.Samples {
		sum += v
		sumSq += v * v
	}
	sort.Float64s(res.Samples)
	n := float64(len(res.Samples))
	res.Mean = sum / n
	if variance := sumSq/n - res.Mean*res.Mean; variance > 0 {
		res.StdDev = math.Sqrt(variance)
	}

	// Tornado: vary one parameter across its 10-90 band with the rest
	// at their means.
	means := make([]float64, len(cfg.Params))
	for i, p := range cfg.Params {
		means[i] = p.Dist.Mean()
	}
	d := make([]float64, len(means))
	for i, p := range cfg.Params {
		entry := Sensitivity{Param: p.Name}
		for _, q := range []float64{0.1, 0.9} {
			copy(d, means)
			d[i] = p.Dist.Quantile(q)
			v, err := cfg.Model(d)
			if err != nil {
				return Result{}, fmt.Errorf("montecarlo: tornado %s@%g: %w", p.Name, q, err)
			}
			if q == 0.1 {
				entry.Low = v
			} else {
				entry.High = v
			}
		}
		res.Tornado = append(res.Tornado, entry)
	}
	sort.SliceStable(res.Tornado, func(i, j int) bool {
		return res.Tornado[i].Swing() > res.Tornado[j].Swing()
	})
	return res, nil
}

// drawChunk is how many consecutive sample indices one worker claims
// per fetch: model evaluations are heavier than sweep cells, so a
// larger chunk amortizes the counter without hurting balance.
const drawChunk = 16

// evalDraws fills out[i] with the model output for draw base+i,
// fanning the draws across the shared fixed worker pool. Each draw's
// parameters come from a generator sub-seeded with (cfg.Seed, index),
// so the result is identical to a sequential run and independent of
// the worker count — including the reported error, which is always the
// lowest failing index's.
func evalDraws(cfg Config, base int, out []float64) error {
	return pool.RunWorkers(len(out), drawChunk, func() pool.Eval {
		// Per-worker scratch: the generator state is reset per draw,
		// the draw slice is reused across draws.
		src := &splitmix{}
		rng := rand.New(src)
		draw := make([]float64, len(cfg.Params))
		return func(i int) error {
			src.state = subSeed(cfg.Seed, base+i)
			for j, p := range cfg.Params {
				draw[j] = p.Dist.Sample(rng)
			}
			v, err := cfg.Model(draw)
			if err != nil {
				return fmt.Errorf("montecarlo: sample %d: %w", base+i, err)
			}
			out[i] = v
			return nil
		}
	})
}

// subSeed derives draw i's generator state from the study seed by one
// round of splitmix64 finalization over the combined words, so
// neighbouring indices land on uncorrelated streams.
func subSeed(seed int64, i int) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1)
}

// splitmix is a splitmix64 rand.Source64: one mix per output word,
// trivially seekable by assigning state. Its quality is ample for
// Monte-Carlo sampling and, unlike the default Go source, its state is
// two words instead of ~5 KB, so per-draw reseeding is free.
type splitmix struct{ state uint64 }

// Uint64 advances the state and mixes out one word.
func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// clamp01 bounds p to [0,1].
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
