package sweep

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"greenfpga/internal/units"
)

func TestLinspace(t *testing.T) {
	got := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	if len(got) != len(want) {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("n=0 must be nil")
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1: %v", got)
	}
}

func TestLogspace(t *testing.T) {
	got := Logspace(1e3, 1e6, 4)
	want := []float64{1e3, 1e4, 1e5, 1e6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6*want[i] {
			t.Errorf("logspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if Logspace(-1, 10, 3) != nil || Logspace(1, 10, 0) != nil {
		t.Error("invalid inputs must be nil")
	}
}

func TestIntRange(t *testing.T) {
	got := IntRange(1, 4)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("IntRange: %v", got)
	}
	if IntRange(4, 1) != nil {
		t.Error("inverted range must be nil")
	}
}

// pairEval adapts an FPGA/ASIC evaluator to a two-member set sweep,
// the 1-D sweep shape of figs. 4-6 (Totals[0]/[1] = FPGA/ASIC).
func pairEval(eval func(x float64) (fpga, asic units.Mass, err error)) SetEval {
	return func(x float64, totals []units.Mass) (err error) {
		totals[0], totals[1], err = eval(x)
		return err
	}
}

// TestRun1D checks a one-axis FPGA/ASIC sweep: points in axis order,
// each with its FPGA:ASIC ratio.
func TestRun1D(t *testing.T) {
	axis := Axis{Name: "x", Values: Linspace(1, 10, 10)}
	pts, err := RunN(axis, 2, pairEval(func(x float64) (units.Mass, units.Mass, error) {
		return units.Kilograms(2 * x), units.Kilograms(x), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("points: %d", len(pts))
	}
	for i, p := range pts {
		if p.X != axis.Values[i] {
			t.Errorf("order violated at %d: %g", i, p.X)
		}
		if r := ratio(p.Totals[0], p.Totals[1]); math.Abs(r-2) > 1e-12 {
			t.Errorf("ratio at %g: %g", p.X, r)
		}
	}
}

// TestRun1DErrors covers a one-axis FPGA/ASIC sweep's argument checks
// and a failure on some of its points.
func TestRun1DErrors(t *testing.T) {
	ok := pairEval(func(x float64) (units.Mass, units.Mass, error) { return 1, 1, nil })
	if _, err := RunN(Axis{Name: "empty"}, 2, ok); err == nil {
		t.Error("empty axis must error")
	}
	if _, err := RunN(Axis{Name: "nan", Values: []float64{math.NaN()}}, 2, ok); err == nil {
		t.Error("NaN axis must error")
	}
	if _, err := RunN(Axis{Name: "x", Values: []float64{1}}, 2, nil); err == nil {
		t.Error("nil evaluator must error")
	}
	boom := errors.New("boom")
	_, err := RunN(Axis{Name: "x", Values: Linspace(0, 1, 8)}, 2,
		pairEval(func(x float64) (units.Mass, units.Mass, error) {
			if x > 0.5 {
				return 0, 0, boom
			}
			return 1, 1, nil
		}))
	if !errors.Is(err, boom) {
		t.Errorf("evaluator error not propagated: %v", err)
	}
}

func TestRun2D(t *testing.T) {
	x := Axis{Name: "x", Values: Linspace(1, 4, 4)}
	y := Axis{Name: "y", Values: Linspace(1, 3, 3)}
	g, err := Run2D(x, y, func(xv, yv float64, totals []units.Mass) error {
		totals[0], totals[1] = units.Kilograms(xv*yv), units.Kilograms(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ratio) != 3 || len(g.Ratio[0]) != 4 {
		t.Fatalf("grid shape %dx%d", len(g.Ratio), len(g.Ratio[0]))
	}
	if math.Abs(g.Ratio[2][3]-(4*3)/2.0) > 1e-12 {
		t.Errorf("ratio[2][3] = %g", g.Ratio[2][3])
	}
}

func TestRun2DErrors(t *testing.T) {
	okAxis := Axis{Name: "x", Values: []float64{1}}
	ok := func(x, y float64, totals []units.Mass) error { totals[0], totals[1] = 1, 1; return nil }
	if _, err := Run2D(Axis{Name: "bad"}, okAxis, ok); err == nil {
		t.Error("bad x axis must error")
	}
	if _, err := Run2D(okAxis, Axis{Name: "bad"}, ok); err == nil {
		t.Error("bad y axis must error")
	}
	if _, err := Run2D(okAxis, okAxis, nil); err == nil {
		t.Error("nil evaluator must error")
	}
	boom := errors.New("boom")
	_, err := Run2D(Axis{Name: "x", Values: Linspace(0, 1, 4)},
		Axis{Name: "y", Values: Linspace(0, 1, 4)},
		func(x, y float64, totals []units.Mass) error {
			if x > 0.5 && y > 0.5 {
				return boom
			}
			totals[0], totals[1] = 1, 1
			return nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("evaluator error not propagated: %v", err)
	}
}

func TestContour(t *testing.T) {
	// ratio(x, y) = x/y: the level-1 contour is the diagonal x = y.
	x := Axis{Name: "x", Values: Linspace(0.5, 4.5, 9)}
	y := Axis{Name: "y", Values: Linspace(0.5, 4.5, 9)}
	g, err := Run2D(x, y, func(xv, yv float64, totals []units.Mass) error {
		totals[0], totals[1] = units.Kilograms(xv), units.Kilograms(yv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Contour(1)
	if len(pts) == 0 {
		t.Fatal("no contour points")
	}
	for _, p := range pts {
		if math.Abs(p.X-p.Y) > 0.51 {
			t.Errorf("contour point (%g, %g) far from diagonal", p.X, p.Y)
		}
	}
	// A constant grid has no contour.
	flat, _ := Run2D(x, y, func(_, _ float64, totals []units.Mass) error {
		totals[0], totals[1] = units.Kilograms(3), units.Kilograms(1)
		return nil
	})
	if pts := flat.Contour(1); len(pts) != 0 {
		t.Errorf("flat grid contour: %d points", len(pts))
	}
}

func TestContourLogInterpolation(t *testing.T) {
	// On a log axis the crossing interpolates geometrically.
	g := &Grid{
		XAxis: Axis{Name: "v", Values: []float64{1e3, 1e5}, Log: true},
		YAxis: Axis{Name: "y", Values: []float64{1}},
		Ratio: [][]float64{{0.5, 1.5}},
	}
	pts := g.Contour(1)
	if len(pts) != 1 {
		t.Fatalf("points: %d", len(pts))
	}
	if math.Abs(pts[0].X-1e4) > 1 {
		t.Errorf("log crossing at %g, want 1e4", pts[0].X)
	}
}

// TestRunPoolCoversEveryCell drives the worker pool over a grid much
// larger than the worker count with an evaluator that hammers shared
// state, so `go test -race` exercises the pool's synchronization and
// the result check catches dropped or double-evaluated cells.
func TestRunPoolCoversEveryCell(t *testing.T) {
	const nx, ny = 53, 31 // deliberately not multiples of the chunk size
	var calls atomic.Int64
	x := Axis{Name: "x", Values: Linspace(0, 1, nx)}
	y := Axis{Name: "y", Values: Linspace(0, 1, ny)}
	g, err := Run2D(x, y, func(xv, yv float64, totals []units.Mass) error {
		calls.Add(1)
		totals[0], totals[1] = units.Kilograms(xv+2*yv+1), units.Kilograms(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != nx*ny {
		t.Fatalf("evaluator ran %d times, want %d", got, nx*ny)
	}
	for yi := range g.Ratio {
		for xi := range g.Ratio[yi] {
			want := x.Values[xi] + 2*y.Values[yi] + 1
			if math.Abs(g.Ratio[yi][xi]-want) > 1e-12 {
				t.Fatalf("cell (%d,%d) = %g, want %g", xi, yi, g.Ratio[yi][xi], want)
			}
		}
	}
}

// TestRunPoolFirstErrorDeterministic asserts the pool reports the
// lowest-indexed failure regardless of worker scheduling.
func TestRunPoolFirstErrorDeterministic(t *testing.T) {
	axis := Axis{Name: "x", Values: IntRange(0, 100)}
	for trial := 0; trial < 10; trial++ {
		_, err := RunN(axis, 2, func(x float64, totals []units.Mass) error {
			if x >= 50 {
				return fmt.Errorf("boom at %d", int(x))
			}
			totals[0], totals[1] = 1, 1
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 50") {
			t.Fatalf("trial %d: want the lowest failing cell's error, got %v", trial, err)
		}
	}
}

// Property: N-platform sweeps preserve pointwise results regardless
// of parallel execution order.
func TestQuickRunNDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		axis := Axis{Name: "x", Values: Linspace(float64(seed), float64(seed)+10, 16)}
		eval := func(x float64, totals []units.Mass) error {
			totals[0], totals[1] = units.Kilograms(x*x), units.Kilograms(x+1)
			return nil
		}
		a, err1 := RunN(axis, 2, eval)
		b, err2 := RunN(axis, 2, eval)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i].X != b[i].X || a[i].Totals[0] != b[i].Totals[0] || a[i].Totals[1] != b[i].Totals[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRunN checks the N-platform sweep: totals land in axis and set
// order.
func TestRunN(t *testing.T) {
	axis := Axis{Name: "x", Values: Linspace(1, 4, 4)}
	pts, err := RunN(axis, 3, func(x float64, totals []units.Mass) error {
		for i := range totals {
			totals[i] = units.Kilograms(x * float64(i+1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		wantX := axis.Values[i]
		if p.X != wantX || len(p.Totals) != 3 {
			t.Fatalf("point %d: %+v", i, p)
		}
		for j, m := range p.Totals {
			if m != units.Kilograms(wantX*float64(j+1)) {
				t.Errorf("point %d total %d: %v", i, j, m)
			}
		}
	}
}

// TestRunNErrors covers the argument checks and evaluator failures.
func TestRunNErrors(t *testing.T) {
	axis := Axis{Name: "x", Values: Linspace(1, 2, 2)}
	if _, err := RunN(axis, 0, func(float64, []units.Mass) error { return nil }); err == nil {
		t.Error("zero platforms must error")
	}
	if _, err := RunN(axis, 1, nil); err == nil {
		t.Error("nil evaluator must error")
	}
	if _, err := RunN(Axis{}, 1, func(float64, []units.Mass) error { return nil }); err == nil {
		t.Error("invalid axis must error")
	}
	if _, err := RunN(Axis{Name: "nan", Values: []float64{math.NaN()}}, 1, func(float64, []units.Mass) error { return nil }); err == nil {
		t.Error("NaN axis must error")
	}
	boom := fmt.Errorf("boom")
	if _, err := RunN(axis, 1, func(float64, []units.Mass) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("evaluator error not surfaced: %v", err)
	}
	// A failure on only some points still fails the sweep.
	_, err := RunN(Axis{Name: "x", Values: Linspace(0, 1, 8)}, 2, func(x float64, totals []units.Mass) error {
		if x > 0.5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("partial evaluator error not surfaced: %v", err)
	}
}
