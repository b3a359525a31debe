package core

import (
	"fmt"
	"math"

	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// Set is an ordered list of platforms compared on one shared scenario.
// The two-platform FPGA/ASIC comparison of the paper is
// Set{fpga, asic}; the follow-up four-way comparison adds GPU and CPU
// platforms. Which accounting equation each member uses follows its
// device kind's reuse policy, so a set may freely mix embodied-once
// and embodied-per-application platforms.
type Set []Platform

// Validate checks every platform and that the set can be compared.
func (set Set) Validate() error {
	if len(set) == 0 {
		return fmt.Errorf("core: empty platform set")
	}
	for i, p := range set {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: set platform %d: %w", i, err)
		}
	}
	return nil
}

// Member finds the set platform of the given device kind; the error
// lists the kinds the set does carry.
func (set Set) Member(kind device.Kind) (Platform, error) {
	kinds := make([]device.Kind, len(set))
	for i, p := range set {
		kinds[i] = p.Spec.Kind
		if kinds[i] == kind {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("core: set has no %q platform (have: %v)", kind, kinds)
}

// Compile compiles every platform of the set.
func (set Set) Compile() (CompiledSet, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("core: empty platform set")
	}
	out := make(CompiledSet, len(set))
	for i, p := range set {
		c, err := Compile(p)
		if err != nil {
			return nil, fmt.Errorf("core: set platform %d (%s): %w", i, p.Spec.Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// CompiledSet is a Set whose platforms have been compiled once for
// dense sweeps, crossover probes and Monte-Carlo draws. It is
// immutable after Compile and safe for concurrent use.
type CompiledSet []*Compiled

// Set returns the compiled platforms' inputs in set order.
func (cs CompiledSet) Set() Set {
	out := make(Set, len(cs))
	for i, c := range cs {
		out[i] = c.prep.platform
	}
	return out
}

// Member finds the compiled platform of the given device kind; it
// fails as Set.Member does.
func (cs CompiledSet) Member(kind device.Kind) (*Compiled, error) {
	for _, c := range cs {
		if c.prep.platform.Spec.Kind == kind {
			return c, nil
		}
	}
	_, err := cs.Set().Member(kind)
	return nil, err
}

// SetComparison is the outcome of evaluating every platform of a set
// on one shared scenario.
type SetComparison struct {
	// Assessments holds one assessment per set platform, in set order.
	Assessments []Assessment
	// Ratios holds the pairwise total-CFP ratios:
	// Ratios[i][j] = total(i) / total(j), +Inf when total(j) is zero
	// and i differs from j (the diagonal is 1).
	Ratios [][]float64
	// Winner indexes the assessment with the minimum total CFP (ties
	// go to the earliest set position).
	Winner int
}

// WinnerAssessment returns the minimum-CFP assessment.
func (sc SetComparison) WinnerAssessment() Assessment {
	return sc.Assessments[sc.Winner]
}

// Ratio returns total(i)/total(j); Ratio(0, 1) of Set{fpga, asic} is
// the paper's FPGA:ASIC ratio — below 1 the FPGA is the more
// sustainable choice (the purple regions of Fig. 8).
func (sc SetComparison) Ratio(i, j int) float64 { return sc.Ratios[i][j] }

// newSetComparison derives ratios and the winner from assessments.
func newSetComparison(as []Assessment) SetComparison {
	sc := SetComparison{Assessments: as, Ratios: make([][]float64, len(as))}
	totals := make([]float64, len(as))
	for i, a := range as {
		totals[i] = a.Total().Kilograms()
		if totals[i] < totals[sc.Winner] {
			sc.Winner = i
		}
	}
	for i := range as {
		sc.Ratios[i] = make([]float64, len(as))
		for j := range as {
			switch {
			case i == j:
				sc.Ratios[i][j] = 1
			case totals[j] != 0:
				sc.Ratios[i][j] = totals[i] / totals[j]
			default:
				sc.Ratios[i][j] = math.Inf(1)
			}
		}
	}
	return sc
}

// compare evaluates every platform of the set in set order with eval,
// wrapping a failure with the platform's name, and derives the ratios
// and the winner.
func (cs CompiledSet) compare(eval func(i int, c *Compiled) (Assessment, error)) (SetComparison, error) {
	if len(cs) == 0 {
		return SetComparison{}, fmt.Errorf("core: empty compiled set")
	}
	as := make([]Assessment, len(cs))
	for i, c := range cs {
		a, err := eval(i, c)
		if err != nil {
			return SetComparison{}, fmt.Errorf("core: platform %s: %w", c.prep.platform.Spec.Name, err)
		}
		as[i] = a
	}
	return newSetComparison(as), nil
}

// Compare evaluates every platform of the set on the scenario.
func (cs CompiledSet) Compare(s Scenario) (SetComparison, error) {
	return cs.compare(func(_ int, c *Compiled) (Assessment, error) { return c.Evaluate(s) })
}

// CompareUniform evaluates every platform of the set on a uniform
// scenario through the O(1) path.
func (cs CompiledSet) CompareUniform(n int, lifetime units.Years, volume, sizeGates float64) (SetComparison, error) {
	return cs.compare(func(_ int, c *Compiled) (Assessment, error) {
		return c.EvaluateUniform(n, lifetime, volume, sizeGates)
	})
}

// DiffUniformBetween is the signed a-minus-b uniform-scenario total in
// kilograms — the quantity every crossover solver drives to zero.
func DiffUniformBetween(a, b *Compiled, n int, lifetime units.Years, volume, sizeGates float64) (float64, error) {
	at, err := a.UniformTotal(n, lifetime, volume, sizeGates)
	if err != nil {
		return 0, fmt.Errorf("core: platform %s: %w", a.prep.platform.Spec.Name, err)
	}
	bt, err := b.UniformTotal(n, lifetime, volume, sizeGates)
	if err != nil {
		return 0, fmt.Errorf("core: platform %s: %w", b.prep.platform.Spec.Name, err)
	}
	return at.Kilograms() - bt.Kilograms(), nil
}

// cappedEither reports whether either platform limits hardware
// generations, which makes the a-minus-b diff piecewise in the swept
// parameter instead of affine.
func cappedEither(a, b *Compiled) bool {
	return a.prep.platform.ChipLifetime > 0 || b.prep.platform.ChipLifetime > 0
}

// CrossoverNumAppsBetween finds the smallest N_app in 1..maxN at which
// platform a's total drops below platform b's — the A2F crossover of
// experiment A (Fig. 4) when a is the FPGA and b the ASIC, and the
// same question between any other two platforms. Without chip-lifetime
// caps both totals are affine in N_app, so the diff is monotone and
// the first negative N is located by binary search in O(log maxN)
// probes; with caps the diff is piecewise and the solver falls back to
// a linear scan (still O(1) per probe). found is false when no
// crossover occurs within maxN.
func CrossoverNumAppsBetween(a, b *Compiled, lifetime units.Years, volume, sizeGates float64, maxN int) (n int, found bool, err error) {
	if maxN < 1 {
		return 0, false, fmt.Errorf("core: maxN must be >= 1, got %d", maxN)
	}
	probe := func(n int) (float64, error) {
		return DiffUniformBetween(a, b, n, lifetime, volume, sizeGates)
	}
	if cappedEither(a, b) {
		for n := 1; n <= maxN; n++ {
			d, err := probe(n)
			if err != nil {
				return 0, false, err
			}
			if d < 0 {
				return n, true, nil
			}
		}
		return 0, false, nil
	}
	d, err := probe(1)
	if err != nil {
		return 0, false, err
	}
	if d < 0 {
		return 1, true, nil
	}
	if maxN == 1 {
		return 0, false, nil
	}
	d, err = probe(maxN)
	if err != nil {
		return 0, false, err
	}
	if d >= 0 {
		// The diff is affine in n: non-negative at both ends means
		// non-negative everywhere between.
		return 0, false, nil
	}
	// Invariant: diff(lo) >= 0, diff(hi) < 0.
	lo, hi := 1, maxN
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		d, err := probe(mid)
		if err != nil {
			return 0, false, err
		}
		if d < 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// CrossoverLifetimeBetween bisects the application lifetime T_i on
// [lo, hi] with fixed N_app and volume for the point where the two
// platform totals meet — the F2A point of experiment B (Fig. 5) for
// the FPGA/ASIC pair, generalized to any two compiled platforms.
func CrossoverLifetimeBetween(a, b *Compiled, nApps int, volume, sizeGates float64, lo, hi units.Years) (units.Years, bool, error) {
	if nApps < 1 {
		return 0, false, fmt.Errorf("core: nApps must be >= 1, got %d", nApps)
	}
	x, found, err := Bisect(lo.Years(), hi.Years(), 1e-4, func(t float64) (float64, error) {
		return DiffUniformBetween(a, b, nApps, units.YearsOf(t), volume, sizeGates)
	})
	return units.YearsOf(x), found, err
}

// CrossoverVolumeBetween bisects the application volume N_vol on
// [lo, hi] with fixed N_app and lifetime — the F2A point of
// experiment C (Fig. 6), generalized to any two compiled platforms.
func CrossoverVolumeBetween(a, b *Compiled, nApps int, lifetime units.Years, sizeGates float64, lo, hi float64) (float64, bool, error) {
	if nApps < 1 {
		return 0, false, fmt.Errorf("core: nApps must be >= 1, got %d", nApps)
	}
	if lo <= 0 {
		return 0, false, fmt.Errorf("core: volume range must be positive, got lo=%g", lo)
	}
	return Bisect(lo, hi, math.Max(1, lo*1e-6), func(v float64) (float64, error) {
		return DiffUniformBetween(a, b, nApps, lifetime, v, sizeGates)
	})
}
