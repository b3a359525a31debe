package core

import (
	"math"
	"testing"
	"testing/quick"

	"greenfpga/internal/units"
)

// testPair compiles the test FPGA/ASIC platforms as a two-member set
// (FPGA first) and returns a reference diff scoring a scenario through
// the uncompiled Evaluate path: FPGA total minus ASIC total, in kg.
func testPair(t *testing.T) (CompiledSet, func(Scenario) float64) {
	t.Helper()
	fpga, asic := testPlatforms(t)
	cs, err := Set{fpga, asic}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	diff := func(s Scenario) float64 {
		f, err := Evaluate(fpga, s)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Evaluate(asic, s)
		if err != nil {
			t.Fatal(err)
		}
		return f.Total().Kilograms() - a.Total().Kilograms()
	}
	return cs, diff
}

func TestCompare(t *testing.T) {
	cs, _ := testPair(t)
	c, err := cs.Compare(Uniform("cmp", 2, units.YearsOf(2), 1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	fpga, asic := c.Assessments[0], c.Assessments[1]
	wantRatio := fpga.Total().Kilograms() / asic.Total().Kilograms()
	if math.Abs(c.Ratio(0, 1)-wantRatio) > 1e-12 {
		t.Errorf("ratio %g, want %g", c.Ratio(0, 1), wantRatio)
	}
	if fpga.Kind == asic.Kind {
		t.Error("kinds should differ")
	}
	// Errors on either side propagate with context.
	badF, badA := testPlatforms(t)
	badF.DutyCycle = 5
	if _, err := (Set{badF, badA}).Compile(); err == nil {
		t.Error("FPGA-side error must propagate")
	}
	badF, badA = testPlatforms(t)
	badA.DutyCycle = 5
	if _, err := (Set{badF, badA}).Compile(); err == nil {
		t.Error("ASIC-side error must propagate")
	}
	if _, err := cs.Compare(Uniform("x", 0, units.YearsOf(1), 10, 0)); err == nil {
		t.Error("scenario error must propagate")
	}
}

func TestBisect(t *testing.T) {
	// Root of x^2 - 2 on [0, 2] is sqrt(2).
	x, found, err := Bisect(0, 2, 1e-9, func(x float64) (float64, error) {
		return x*x - 2, nil
	})
	if err != nil || !found {
		t.Fatalf("bisect: %v %v", found, err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-8 {
		t.Errorf("root %g, want sqrt(2)", x)
	}
	// No sign change: not found, no error.
	_, found, err = Bisect(0, 1, 1e-9, func(x float64) (float64, error) {
		return x + 1, nil
	})
	if err != nil || found {
		t.Errorf("no-bracket case: found=%v err=%v", found, err)
	}
	// Exact zero at an endpoint.
	x, found, _ = Bisect(0, 1, 1e-9, func(x float64) (float64, error) { return x, nil })
	if !found || x != 0 {
		t.Errorf("endpoint zero: %g %v", x, found)
	}
	// Input validation.
	if _, _, err := Bisect(2, 1, 1e-9, nil); err == nil {
		t.Error("inverted range must error")
	}
	if _, _, err := Bisect(0, 1, 0, nil); err == nil {
		t.Error("zero tolerance must error")
	}
}

func TestCrossoverNumApps(t *testing.T) {
	cs, diff := testPair(t)
	// The test FPGA has 2x silicon and 2x power of the ASIC, so it can
	// never win on operation alone, but at short lifetimes the per-app
	// ASIC design + hardware cost amortizes and a crossover exists.
	n, found, err := CrossoverNumAppsBetween(cs[0], cs[1], units.YearsOf(0.2), 1e5, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !found || n < 2 {
		t.Fatalf("crossover N=%d found=%v", n, found)
	}
	// Verify the reported N is genuinely the first winning count.
	dPrev := diff(Uniform("p", n-1, units.YearsOf(0.2), 1e5, 0))
	dAt := diff(Uniform("a", n, units.YearsOf(0.2), 1e5, 0))
	if !(dPrev >= 0 && dAt < 0) {
		t.Errorf("crossover not tight: diff(%d)=%g diff(%d)=%g", n-1, dPrev, n, dAt)
	}
	// Long lifetimes keep the 2x-power FPGA above the ASIC forever.
	_, found, err = CrossoverNumAppsBetween(cs[0], cs[1], units.YearsOf(5), 1e5, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("no crossover expected at 5-year lifetimes")
	}
	if _, _, err := CrossoverNumAppsBetween(cs[0], cs[1], units.YearsOf(1), 1e5, 0, 0); err == nil {
		t.Error("maxN < 1 must error")
	}
}

func TestCrossoverLifetime(t *testing.T) {
	cs, diff := testPair(t)
	// With several applications the FPGA wins at short lifetimes and
	// loses at long ones; the boundary is the F2A point.
	tstar, found, err := CrossoverLifetimeBetween(cs[0], cs[1], 6, 1e5, 0, units.YearsOf(0.05), units.YearsOf(20))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("expected a lifetime crossover")
	}
	lo := diff(Uniform("lo", 6, units.YearsOf(tstar.Years()*0.9), 1e5, 0))
	hi := diff(Uniform("hi", 6, units.YearsOf(tstar.Years()*1.1), 1e5, 0))
	if !(lo < 0 && hi > 0) {
		t.Errorf("F2A point not bracketed: lo=%g hi=%g at T*=%v", lo, hi, tstar)
	}
	if _, _, err := CrossoverLifetimeBetween(cs[0], cs[1], 0, 1e5, 0, units.YearsOf(0.1), units.YearsOf(1)); err == nil {
		t.Error("nApps < 1 must error")
	}
}

func TestCrossoverVolume(t *testing.T) {
	cs, diff := testPair(t)
	// Short lifetimes, several apps: at small volumes the per-app ASIC
	// design CFP dominates (FPGA wins); at large volumes the FPGA's 2x
	// hardware and power lose. An F2A volume crossover must exist.
	v, found, err := CrossoverVolumeBetween(cs[0], cs[1], 6, units.YearsOf(0.5), 0, 1, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if !found || v <= 1 {
		t.Fatalf("volume crossover %g found=%v", v, found)
	}
	lo := diff(Uniform("lo", 6, units.YearsOf(0.5), v*0.9, 0))
	hi := diff(Uniform("hi", 6, units.YearsOf(0.5), v*1.1, 0))
	if !(lo < 0 && hi > 0) {
		t.Errorf("volume crossover not bracketed: lo=%g hi=%g at V*=%g", lo, hi, v)
	}
	if _, _, err := CrossoverVolumeBetween(cs[0], cs[1], 0, units.YearsOf(1), 0, 1, 10); err == nil {
		t.Error("nApps < 1 must error")
	}
	if _, _, err := CrossoverVolumeBetween(cs[0], cs[1], 2, units.YearsOf(1), 0, -1, 10); err == nil {
		t.Error("negative volume range must error")
	}
}

// Property: Bisect finds roots of shifted linear functions anywhere in
// the bracket to the requested tolerance.
func TestQuickBisectLinear(t *testing.T) {
	f := func(rootRaw, slopeRaw float64) bool {
		root := math.Mod(math.Abs(rootRaw), 100)
		slope := 0.1 + math.Mod(math.Abs(slopeRaw), 10)
		if math.IsNaN(root + slope) {
			return true
		}
		x, found, err := Bisect(-1, 101, 1e-6, func(x float64) (float64, error) {
			return slope * (x - root), nil
		})
		return err == nil && found && math.Abs(x-root) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
