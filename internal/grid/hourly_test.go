package grid_test

import (
	"math"
	"testing"

	"greenfpga/internal/carbon"
	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// A grid mix carries one scalar intensity; its hourly counterpart is
// carbon.Synthesize(mix). The tests below pin how the two agree.

// hourOfDayMeans averages an annual hourly trace by hour of day.
func hourOfDayMeans(tr carbon.Trace) [24]float64 {
	var m [24]float64
	for h, ci := range tr {
		m[h%24] += ci.GramsPerKWh()
	}
	days := float64(len(tr) / 24)
	for h := range m {
		m[h] /= days
	}
	return m
}

// TestIntensityTraceValidate: the hourly trace synthesized from every
// preset region is a valid intensity trace, and a trace with a
// negative or missing sample is not.
func TestIntensityTraceValidate(t *testing.T) {
	for _, r := range grid.Regions() {
		mix, err := grid.ByRegion(r)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := carbon.Synthesize(mix)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: synthesized trace invalid: %v", r, err)
		}
	}
	bad := carbon.Flat(units.GramsPerKWh(400), 24)
	bad[5] = units.KgPerKWh(-1)
	if bad.Validate() == nil {
		t.Error("negative intensity must error")
	}
	if (carbon.Trace{}).Validate() == nil {
		t.Error("empty trace must error")
	}
}

// TestIntensityMean: a mix without variable renewables synthesizes a
// flat hourly trace at the mix's scalar intensity.
func TestIntensityMean(t *testing.T) {
	for _, mix := range []grid.Mix{
		{grid.Coal: 1},
		{grid.Gas: 1},
		{grid.Nuclear: 1},
		{grid.Coal: 0.5, grid.Gas: 0.3, grid.Nuclear: 0.2},
	} {
		want, err := mix.Intensity()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := carbon.Synthesize(mix)
		if err != nil {
			t.Fatal(err)
		}
		if m := tr.Mean(); math.Abs(m.GramsPerKWh()-want.GramsPerKWh()) > 1e-9 {
			t.Errorf("%v: hourly mean %v, want %v", mix, m, want)
		}
		if lo, hi := tr.Bounds(); math.Abs(hi.GramsPerKWh()-lo.GramsPerKWh()) > 1e-9 {
			t.Errorf("%v: trace spans %v..%v, want flat", mix, lo, hi)
		}
	}
}

// TestSolarDayShape: solar in a gas-backed mix dips the grid at midday
// and leaves the night at the gas intensity; the same mix without
// solar is flat at it.
func TestSolarDayShape(t *testing.T) {
	gas, err := grid.Intensity(grid.Gas)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := carbon.Synthesize(grid.Mix{grid.Solar: 0.3, grid.Gas: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	byHour := hourOfDayMeans(tr)
	if math.Abs(byHour[2]-gas.GramsPerKWh()) > 1e-9 {
		t.Errorf("night %g g/kWh, want the gas intensity %v", byHour[2], gas)
	}
	if byHour[12] >= byHour[9] || byHour[9] >= byHour[2] {
		t.Errorf("no midday dip: 02:00 %g, 09:00 %g, 12:00 %g g/kWh", byHour[2], byHour[9], byHour[12])
	}
	if byHour[20] != byHour[2] {
		t.Errorf("evening %g g/kWh should equal night %g once the sun is down", byHour[20], byHour[2])
	}
	noSolar, err := carbon.Synthesize(grid.Mix{grid.Gas: 1})
	if err != nil {
		t.Fatal(err)
	}
	for h, ci := range noSolar {
		if ci != gas {
			t.Fatalf("solar-free hour %d: %v, want %v", h, ci, gas)
		}
	}
}
