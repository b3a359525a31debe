package carbon

import (
	"fmt"
	"math"
	"sort"

	"greenfpga/internal/units"
)

// Integrator is a trace compiled for O(1) window integrals: a prefix
// table over one cycle plus the cycle total, so the integral over any
// [start, start+hours) span costs two antiderivative evaluations no
// matter how many years the span covers. Integrators are immutable and
// safe for concurrent use; they are compiled once per region and
// cached exactly like the platform constants in core.Compile.
type Integrator struct {
	values []float64 // kg/kWh per hour, one cycle
	prefix []float64 // prefix[i] = sum of values[:i]; len(values)+1 entries
	cycle  float64   // prefix[len(values)]
	flat   float64   // the constant intensity when isFlat
	isFlat bool
}

// NewIntegrator validates the trace and compiles its prefix tables.
func NewIntegrator(t Trace) (*Integrator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	it := &Integrator{
		values: make([]float64, len(t)),
		prefix: make([]float64, len(t)+1),
		isFlat: t.Flat(),
		flat:   t[0].KgPerKWh(),
	}
	for i, ci := range t {
		it.values[i] = ci.KgPerKWh()
		it.prefix[i+1] = it.prefix[i] + it.values[i]
	}
	it.cycle = it.prefix[len(t)]
	return it, nil
}

// Len reports the cycle length in hours.
func (it *Integrator) Len() int { return len(it.values) }

// Mean is the mean intensity over one cycle.
func (it *Integrator) Mean() units.CarbonIntensity {
	return units.KgPerKWh(it.cycle / float64(len(it.values)))
}

// anti is the antiderivative of the tiled trace: the integral of the
// intensity signal over [0, t) hours, in (kg/kWh)·h.
func (it *Integrator) anti(t float64) float64 {
	n := float64(len(it.values))
	cycles := math.Floor(t / n)
	rem := t - cycles*n
	// Floating-point slop can push rem to n exactly; fold it back.
	i := int(rem)
	if i >= len(it.values) {
		i = len(it.values) - 1
		rem = n
	}
	return cycles*it.cycle + it.prefix[i] + (rem-float64(i))*it.values[i]
}

// Window integrates the intensity signal over [startHours,
// startHours+hours), returning (kg/kWh)·h: multiply by a constant
// hourly energy draw in kWh to get kg CO2e. A flat trace returns
// exactly hours x intensity — the scalar-grid identity the property
// tests pin — rather than a difference of antiderivatives.
func (it *Integrator) Window(startHours, hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	if it.isFlat {
		return hours * it.flat
	}
	return it.anti(startHours+hours) - it.anti(startHours)
}

// Convolve weights one operating year of the trace by an hourly
// utilization profile (tiled cyclically like the trace itself) and
// returns the utilization-weighted intensity integral in (kg/kWh)·h:
// multiply by the device's peak hourly energy draw to get annual kg.
func (it *Integrator) Convolve(util []float64) (float64, error) {
	if len(util) == 0 {
		return 0, fmt.Errorf("carbon: empty utilization profile")
	}
	for i, u := range util {
		if math.IsNaN(u) || u < 0 || u > 1 {
			return 0, fmt.Errorf("carbon: utilization sample %d (%g) outside [0,1]", i, u)
		}
	}
	// The product of the two cyclic signals repeats every
	// lcm(len(util), len(trace)) hours; when that period divides the
	// year, sum one period and scale instead of walking every hour.
	year := int(units.HoursPerYear)
	period := len(util) / gcd(len(util), len(it.values)) * len(it.values)
	if period > year || year%period != 0 {
		period = year
	}
	var sum float64
	for h := 0; h < period; h++ {
		sum += util[h%len(util)] * it.values[h%len(it.values)]
	}
	return sum * float64(year/period), nil
}

// gcd is the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ShiftProfile is the "daily" load-shifting policy compiled against a
// trace for one duty cycle: each day's run-hours are packed into that
// day's cleanest hours instead of spreading uniformly, modelling a
// deferrable workload that follows the grid signal. The energy drawn
// per day is unchanged — only its placement moves — so a flat trace
// shifts to exactly the unshifted total.
type ShiftProfile struct {
	runHours float64
	dayCost  []float64 // (kg/kWh)·h per day at the cheapest runHours hours
	prefix   []float64 // len(dayCost)+1 entries
	cycle    float64
}

// Shift compiles the daily policy for runHours of operation per day
// (0 < runHours <= 24, the duty cycle times 24). The trace cycle must
// cover whole days.
func (it *Integrator) Shift(runHours float64) (*ShiftProfile, error) {
	if math.IsNaN(runHours) || runHours <= 0 || runHours > 24 {
		return nil, fmt.Errorf("carbon: shift run-hours %g outside (0, 24]", runHours)
	}
	if len(it.values)%24 != 0 {
		return nil, fmt.Errorf("carbon: daily shift needs a whole-day trace, got %d hours", len(it.values))
	}
	days := len(it.values) / 24
	sp := &ShiftProfile{
		runHours: runHours,
		dayCost:  make([]float64, days),
		prefix:   make([]float64, days+1),
	}
	day := make([]float64, 24)
	whole := int(runHours)
	frac := runHours - float64(whole)
	for d := 0; d < days; d++ {
		copy(day, it.values[d*24:(d+1)*24])
		sort.Float64s(day)
		var cost float64
		for h := 0; h < whole; h++ {
			cost += day[h]
		}
		if whole < 24 {
			cost += frac * day[whole]
		}
		sp.dayCost[d] = cost
		sp.prefix[d+1] = sp.prefix[d] + cost
	}
	sp.cycle = sp.prefix[days]
	return sp, nil
}

// RunHours reports the operating hours packed into each day.
func (sp *ShiftProfile) RunHours() float64 { return sp.runHours }

// anti integrates the shifted day costs over [0, t) hours, charging a
// partial day its pro-rata share of that day's shifted cost.
func (sp *ShiftProfile) anti(t float64) float64 {
	days := t / 24
	n := float64(len(sp.dayCost))
	cycles := math.Floor(days / n)
	rem := days - cycles*n
	i := int(rem)
	if i >= len(sp.dayCost) {
		i = len(sp.dayCost) - 1
		rem = n
	}
	return cycles*sp.cycle + sp.prefix[i] + (rem-float64(i))*sp.dayCost[i]
}

// Window integrates the shifted intensity cost over [startHours,
// startHours+hours) in (kg/kWh)·h: multiply by the device's peak
// hourly energy draw (power x PUE, not duty-scaled — the duty cycle is
// already inside the packed run-hours) to get kg CO2e.
func (sp *ShiftProfile) Window(startHours, hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return sp.anti(startHours+hours) - sp.anti(startHours)
}
