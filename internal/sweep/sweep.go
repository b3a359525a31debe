// Package sweep runs the parameter sweeps behind the paper's
// evaluation: 1-D sweeps over N_app, T_i or N_vol (Figs. 4-6) and 2-D
// grids with FPGA:ASIC ratio heatmaps and iso-ratio crossover contours
// (Fig. 8). Sweeps evaluate points in parallel across CPUs.
package sweep

import (
	"fmt"
	"math"

	"greenfpga/internal/pool"
	"greenfpga/internal/units"
)

// Axis is a named set of sample points.
type Axis struct {
	// Name labels the axis in reports ("Num Apps", "App Lifetime", ...).
	Name string
	// Values are the sample points in evaluation order.
	Values []float64
	// Log marks the axis as logarithmically spaced for chart rendering.
	Log bool
}

// Validate checks the axis.
func (a Axis) Validate() error {
	if len(a.Values) == 0 {
		return fmt.Errorf("sweep: axis %q has no values", a.Name)
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sweep: axis %q contains %g", a.Name, v)
		}
	}
	return nil
}

// Linspace returns n evenly spaced values covering [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulation error at the endpoint
	return out
}

// Logspace returns n log-evenly spaced values covering [lo, hi]; both
// endpoints must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if n <= 0 || lo <= 0 || hi <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	step := (lhi - llo) / float64(n-1)
	for i := range out {
		out[i] = math.Pow(10, llo+float64(i)*step)
	}
	out[0], out[n-1] = lo, hi
	return out
}

// IntRange returns the integers lo..hi as float values (for N_app
// axes).
func IntRange(lo, hi int) []float64 {
	if hi < lo {
		return nil
	}
	out := make([]float64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, float64(v))
	}
	return out
}

// SetEval evaluates an N-platform set at one axis value, filling one
// total per platform in set order. The totals slice is the point's
// own backing array — implementations must not retain it.
type SetEval func(x float64, totals []units.Mass) error

// PointN is one sample of an N-platform sweep.
type PointN struct {
	// X is the axis value.
	X float64
	// Totals holds one platform total per set member, in set order.
	Totals []units.Mass
}

// RunN evaluates the axis for an n-platform set in parallel and
// returns points in axis order.
func RunN(axis Axis, n int, eval SetEval) ([]PointN, error) {
	return RunRangeN(axis, n, 0, len(axis.Values), eval)
}

// RunRangeN evaluates axis indices [lo, hi) for an n-platform set in
// parallel, returning those points in axis order. Point values depend
// only on the axis, so a range evaluation is identical to the same
// slice of a full RunN — the primitive behind chunked, resumable
// sweep jobs.
func RunRangeN(axis Axis, n, lo, hi int, eval SetEval) ([]PointN, error) {
	if err := axis.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("sweep: need at least one platform, got %d", n)
	}
	if eval == nil {
		return nil, fmt.Errorf("sweep: nil evaluator")
	}
	if lo < 0 || hi < lo || hi > len(axis.Values) {
		return nil, fmt.Errorf("sweep: point range [%d, %d) outside [0, %d)", lo, hi, len(axis.Values))
	}
	pts := make([]PointN, hi-lo)
	err := runPool(hi-lo, func(i int) error {
		x := axis.Values[lo+i]
		totals := make([]units.Mass, n)
		if err := eval(x, totals); err != nil {
			return err
		}
		pts[i] = PointN{X: x, Totals: totals}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// SetEval2D evaluates the first two members of a platform set at one
// grid cell, filling totals[0] and totals[1] in set order, as SetEval
// does on one axis.
type SetEval2D func(x, y float64, totals []units.Mass) error

// Grid is a 2-D sweep result: Ratio[yi][xi] is the ratio of the first
// two set members' total CFP (FPGA:ASIC for the paper's pair) at
// (XAxis.Values[xi], YAxis.Values[yi]).
type Grid struct {
	// XAxis and YAxis are the swept parameters.
	XAxis, YAxis Axis
	// Ratio holds Totals[0]:Totals[1] per cell.
	Ratio [][]float64
}

// Run2D evaluates the grid in parallel.
func Run2D(x, y Axis, eval SetEval2D) (*Grid, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	if err := y.Validate(); err != nil {
		return nil, err
	}
	if eval == nil {
		return nil, fmt.Errorf("sweep: nil evaluator")
	}
	g := &Grid{XAxis: x, YAxis: y}
	g.Ratio = make([][]float64, len(y.Values))
	for yi := range y.Values {
		g.Ratio[yi] = make([]float64, len(x.Values))
	}
	cells := len(x.Values) * len(y.Values)
	totals := make([]units.Mass, 2*cells)
	err := runPool(cells, func(i int) error {
		xi, yi := i%len(x.Values), i/len(x.Values)
		t := totals[2*i : 2*i+2 : 2*i+2]
		if err := eval(x.Values[xi], y.Values[yi], t); err != nil {
			return err
		}
		g.Ratio[yi][xi] = ratio(t[0], t[1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ContourPoint is one point of an iso-ratio contour.
type ContourPoint struct {
	// X and Y are in axis units.
	X, Y float64
}

// Contour extracts the points where the ratio crosses the level along
// each row and column by linear interpolation — the pink crossover
// dashes of Fig. 8. Points are ordered by Y then X.
func (g *Grid) Contour(level float64) []ContourPoint {
	var out []ContourPoint
	// Row-wise crossings.
	for yi, row := range g.Ratio {
		for xi := 0; xi+1 < len(row); xi++ {
			p := interpolateCrossing(g.XAxis.Values[xi], g.XAxis.Values[xi+1],
				row[xi], row[xi+1], level, g.XAxis.Log)
			if !math.IsNaN(p) {
				out = append(out, ContourPoint{X: p, Y: g.YAxis.Values[yi]})
			}
		}
	}
	// Column-wise crossings.
	for xi := range g.XAxis.Values {
		for yi := 0; yi+1 < len(g.Ratio); yi++ {
			p := interpolateCrossing(g.YAxis.Values[yi], g.YAxis.Values[yi+1],
				g.Ratio[yi][xi], g.Ratio[yi+1][xi], level, g.YAxis.Log)
			if !math.IsNaN(p) {
				out = append(out, ContourPoint{X: g.XAxis.Values[xi], Y: p})
			}
		}
	}
	return out
}

// interpolateCrossing finds the axis value in [a, b] where the ratio
// passes level, or NaN when it does not. Log axes interpolate in log
// space.
func interpolateCrossing(a, b, ra, rb, level float64, logAxis bool) float64 {
	da, db := ra-level, rb-level
	if da == 0 {
		return a
	}
	if db == 0 || (da > 0) == (db > 0) {
		return math.NaN()
	}
	t := da / (da - db)
	if logAxis && a > 0 && b > 0 {
		return math.Pow(10, math.Log10(a)+t*(math.Log10(b)-math.Log10(a)))
	}
	return a + t*(b-a)
}

// ratio is FPGA:ASIC with a +Inf guard for zero ASIC totals.
func ratio(f, a units.Mass) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	return f.Kilograms() / a.Kilograms()
}

// poolChunk is how many consecutive cells one sweep worker claims per
// fetch: sweep cells are cheap and uniform, so a small chunk balances
// well.
const poolChunk = 8

// runPool evaluates cells 0..n-1 on the shared fixed worker pool.
func runPool(n int, eval func(i int) error) error {
	return pool.Run(n, poolChunk, eval)
}
