package deploy

import (
	"math"
	"testing"
	"testing/quick"

	"greenfpga/internal/carbon"
	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// The hourly operational-carbon model is carbon.Integrator.Convolve:
// an hourly utilization profile weighted by an hourly grid trace. The
// tests below pin its contract with OperationProfile, the paper's
// mean-duty C_op model: on a flat grid the two agree at the profile's
// mean utilization, and only a non-flat grid tells schedules apart.

// busyWindow is a 24-hour utilization profile: busy from start for
// hours hours (wrapping past midnight), idle otherwise.
func busyWindow(start, hours int, busy, idle float64) []float64 {
	util := make([]float64, 24)
	for h := range util {
		util[h] = idle
		if (h-start+24)%24 < hours {
			util[h] = busy
		}
	}
	return util
}

// meanOf is the mean utilization of a profile: the duty cycle the
// flat model needs to reproduce it.
func meanOf(util []float64) float64 {
	var sum float64
	for _, u := range util {
		sum += u
	}
	return sum / float64(len(util))
}

// solarDipDay is a 24-hour trace at base whose intensity dips by dip
// across 10:00-16:00 (half depth at 08:00-10:00 and 16:00-18:00) and
// rises by dip/2 across 18:00-22:00.
func solarDipDay(base units.CarbonIntensity, dip float64) carbon.Trace {
	day := make(carbon.Trace, 24)
	for h := range day {
		scale := 1.0
		switch {
		case h >= 10 && h < 16:
			scale = 1 - dip
		case (h >= 8 && h < 10) || (h >= 16 && h < 18):
			scale = 1 - dip/2
		case h >= 18 && h < 22:
			scale = 1 + dip/2
		}
		day[h] = base.Scale(scale)
	}
	return day
}

// hourlyKg is one device's annual operational carbon under the hourly
// model: the (kg/kWh)·h convolution times the facility-level peak
// hourly energy draw.
func hourlyKg(t *testing.T, day carbon.Trace, util []float64, peak units.Power, pue float64) float64 {
	t.Helper()
	it, err := carbon.NewIntegrator(day)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := it.Convolve(util)
	if err != nil {
		t.Fatal(err)
	}
	return ih * peak.Scale(pue).OverHours(1).KWh()
}

// TestTraceValidate: the hourly model accepts utilization profiles in
// [0,1] and rejects empty, negative, above-peak and NaN samples.
func TestTraceValidate(t *testing.T) {
	it, err := carbon.NewIntegrator(carbon.Flat(units.GramsPerKWh(400), 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Convolve([]float64{0.1, 0.5, 1}); err != nil {
		t.Errorf("good profile: %v", err)
	}
	for name, util := range map[string][]float64{
		"empty":    {},
		"negative": {0.5, -0.1},
		"above 1":  {0.5, 1.1},
		"NaN":      {math.NaN()},
	} {
		if _, err := it.Convolve(util); err == nil {
			t.Errorf("%s profile must error", name)
		}
	}
}

// TestMeanUtilization: the duty cycle that reproduces an hourly
// profile's annual energy is its mean utilization.
func TestMeanUtilization(t *testing.T) {
	util := []float64{0, 0.5, 1}
	mean := meanOf(util)
	if math.Abs(mean-0.5) > 1e-12 {
		t.Fatalf("mean %g, want 0.5", mean)
	}
	peak := units.Watts(100)
	e, err := OperationProfile{PeakPower: peak, DutyCycle: mean}.AnnualEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// On a 1 kg/kWh grid the hourly carbon in kg is the energy in kWh.
	got := hourlyKg(t, carbon.Flat(units.KgPerKWh(1), 24), util, peak, 1)
	if math.Abs(got-e.KWh()) > 1e-9*e.KWh() {
		t.Errorf("hourly energy %g kWh != mean-duty energy %v", got, e)
	}
}

// TestDiurnalTrace: on a flat grid, every placement of the same busy
// window — including the ones wrapping past midnight — emits the same
// annual carbon, equal to the mean-duty model.
func TestDiurnalTrace(t *testing.T) {
	base := units.GramsPerKWh(440)
	peak := units.Watts(75)
	const pue = 1.2
	want, err := OperationProfile{
		PeakPower: peak, DutyCycle: meanOf(busyWindow(0, 8, 0.9, 0.1)), PUE: pue,
	}.AnnualCarbonAt(base)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < 24; start++ {
		util := busyWindow(start, 8, 0.9, 0.1)
		got := hourlyKg(t, carbon.Flat(base, 24), util, peak, pue)
		if math.Abs(got-want.Kilograms()) > 1e-9*want.Kilograms() {
			t.Errorf("window from %02d:00: hourly %g kg != mean-duty %v", start, got, want)
		}
	}
}

// TestTraceProfileMatchesFlatDuty: a profile on a grid mix, with a
// facility PUE, matches the flat model's energy and carbon when the
// hourly trace is flat at the mix's intensity.
func TestTraceProfileMatchesFlatDuty(t *testing.T) {
	mix := grid.Mix{grid.Coal: 1}
	util := busyWindow(8, 12, 0.8, 0.2)
	flat := OperationProfile{
		PeakPower: units.Watts(100), DutyCycle: meanOf(util), PUE: 1.2, UseMix: mix,
	}
	ci, err := flat.Intensity()
	if err != nil {
		t.Fatal(err)
	}
	fe, err := flat.AnnualEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if e := hourlyKg(t, carbon.Flat(units.KgPerKWh(1), 24), util, flat.PeakPower, flat.PUE); math.Abs(e-fe.KWh()) > 1e-9 {
		t.Errorf("hourly energy %g kWh != flat %v", e, fe)
	}
	fc, err := flat.AnnualCarbon()
	if err != nil {
		t.Fatal(err)
	}
	if c := hourlyKg(t, carbon.Flat(ci, 24), util, flat.PeakPower, flat.PUE); math.Abs(c-fc.Kilograms()) > 1e-9 {
		t.Errorf("hourly carbon %g kg != flat %v", c, fc)
	}
}

// TestAnnualCarbonOnGrid: the same 8 busy hours emit less inside a
// solar-dip day's clean midday than across its evening peak, while a
// day without the dip is schedule-invariant and equals the mean-duty
// model.
func TestAnnualCarbonOnGrid(t *testing.T) {
	base := units.GramsPerKWh(400)
	peak := units.Watts(1000)
	midday, evening := busyWindow(9, 8, 0.9, 0.1), busyWindow(16, 8, 0.9, 0.1)

	solar := solarDipDay(base, 0.5)
	if cm, ce := hourlyKg(t, solar, midday, peak, 1), hourlyKg(t, solar, evening, peak, 1); cm >= ce {
		t.Errorf("midday scheduling %g kg should beat evening %g kg on a solar grid", cm, ce)
	}

	flat := solarDipDay(base, 0)
	cf1, cf2 := hourlyKg(t, flat, midday, peak, 1), hourlyKg(t, flat, evening, peak, 1)
	if math.Abs(cf1-cf2) > 1e-9 {
		t.Errorf("flat grid should be schedule-invariant: %g vs %g kg", cf1, cf2)
	}
	want, err := OperationProfile{PeakPower: peak, DutyCycle: meanOf(midday)}.AnnualCarbonAt(base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf1-want.Kilograms()) > 1e-6*want.Kilograms() {
		t.Errorf("flat-grid hourly carbon %g kg != mean model %v", cf1, want)
	}
}

// TestAnnualCarbonOnGridErrors: each input of the hourly model is
// checked — the grid trace by NewIntegrator, the utilization profile
// by Convolve, and the duty cycle and PUE of the flat column by
// OperationProfile.
func TestAnnualCarbonOnGridErrors(t *testing.T) {
	if _, err := carbon.NewIntegrator(carbon.Trace{}); err == nil {
		t.Error("empty intensity trace must error")
	}
	bad := solarDipDay(units.GramsPerKWh(400), 0.3)
	bad[5] = units.KgPerKWh(-1)
	if _, err := carbon.NewIntegrator(bad); err == nil {
		t.Error("negative intensity sample must error")
	}
	it, err := carbon.NewIntegrator(solarDipDay(units.GramsPerKWh(400), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Convolve(nil); err == nil {
		t.Error("empty utilization profile must error")
	}
	if _, err := it.Convolve(busyWindow(9, 8, 1.5, 0.1)); err == nil {
		t.Error("utilization above 1 must error")
	}
	if _, err := (OperationProfile{PeakPower: units.Watts(1), DutyCycle: 0.5, PUE: 0.5}).AnnualCarbonAt(units.GramsPerKWh(400)); err == nil {
		t.Error("PUE < 1 must error")
	}
	if _, err := (OperationProfile{PeakPower: units.Watts(1), DutyCycle: 1.2}).AnnualCarbonAt(units.GramsPerKWh(400)); err == nil {
		t.Error("duty cycle above 1 must error")
	}
}

// Property: any valid 24-hour profile's hourly annual energy equals
// the flat profile at its mean utilization, and scales linearly with
// peak power.
func TestQuickTraceEquivalence(t *testing.T) {
	unit := carbon.Flat(units.KgPerKWh(1), 24)
	f := func(raw [24]uint8, powRaw float64) bool {
		util := make([]float64, 24)
		for i, v := range raw {
			util[i] = float64(v) / 255
		}
		pow := 1 + math.Mod(math.Abs(powRaw), 1e4)
		if math.IsNaN(pow) {
			return true
		}
		e1 := hourlyKg(t, unit, util, units.Watts(pow), 1)
		want, err := OperationProfile{PeakPower: units.Watts(pow), DutyCycle: meanOf(util)}.AnnualEnergy()
		if err != nil {
			return false
		}
		if math.Abs(e1-want.KWh()) > 1e-6*math.Max(1, want.KWh()) {
			return false
		}
		e2 := hourlyKg(t, unit, util, units.Watts(2*pow), 1)
		return math.Abs(e2-2*e1) < 1e-6*math.Max(1, e2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
