package carbon

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"greenfpga/internal/deploy"
	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// testTrace builds a deterministic non-flat trace of n samples.
func testTrace(n int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = units.GramsPerKWh(300 + 200*math.Sin(2*math.Pi*float64(i)/24) + 50*math.Sin(2*math.Pi*float64(i)/86))
	}
	return t
}

// TestFlatWindowExact pins the scalar-equivalence property: a flat
// trace integrates to exactly hours x intensity — bit-for-bit, not
// approximately — for any start offset and span.
func TestFlatWindowExact(t *testing.T) {
	for _, ci := range []float64{0, 0.011, 0.436, 0.7121212121} {
		it, err := NewIntegrator(Flat(units.KgPerKWh(ci), 24))
		if err != nil {
			t.Fatalf("NewIntegrator: %v", err)
		}
		for _, start := range []float64{0, 1.5, 8760, 12345.678, 3 * 8760.0} {
			for _, hours := range []float64{0.25, 1, 7.3, 8760, 17520, 8760 * 1.7} {
				got := it.Window(start, hours)
				want := hours * ci
				if got != want {
					t.Errorf("Window(%g, %g) with flat ci %g = %v, want exactly %v", start, hours, ci, got, want)
				}
			}
		}
	}
}

// TestWindowMatchesBruteForce checks the prefix-sum antiderivative
// against a literal hour-by-hour accumulation, including fractional
// endpoints and multi-cycle wraparound.
func TestWindowMatchesBruteForce(t *testing.T) {
	tr := testTrace(48)
	it, err := NewIntegrator(tr)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	brute := func(start, hours float64) float64 {
		const step = 1.0 / 64
		var sum float64
		for x := 0.0; x < hours-step/2; x += step {
			h := math.Mod(start+x, float64(len(tr)))
			sum += tr[int(h)].KgPerKWh() * step
		}
		return sum
	}
	for _, c := range []struct{ start, hours float64 }{
		{0, 24}, {0, 48}, {12, 48}, {7.5, 3.25}, {47.5, 1}, {100.25, 96.5}, {8760, 48},
	} {
		got := it.Window(c.start, c.hours)
		want := brute(c.start, c.hours)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("Window(%g, %g) = %v, brute force %v", c.start, c.hours, got, want)
		}
	}
}

// TestWindowAdditive checks that adjacent windows sum to their union —
// the property the schedule evaluator leans on when deployments abut.
func TestWindowAdditive(t *testing.T) {
	it, err := NewIntegrator(testTrace(8760))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	whole := it.Window(0, 3*8760)
	split := it.Window(0, 8760) + it.Window(8760, 8760) + it.Window(2*8760, 8760)
	if math.Abs(whole-split) > 1e-6 {
		t.Errorf("3-year window %v != sum of annual windows %v", whole, split)
	}
}

// TestConvolve pins the utilization convolution on a flat trace (equal
// to mean utilization x 8760 x ci) and checks profile validation.
func TestConvolve(t *testing.T) {
	it, err := NewIntegrator(Flat(units.KgPerKWh(0.4), 24))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	got, err := it.Convolve([]float64{1, 0, 1, 0})
	if err != nil {
		t.Fatalf("Convolve: %v", err)
	}
	want := 0.5 * 8760 * 0.4
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Convolve = %v, want %v", got, want)
	}
	if _, err := it.Convolve(nil); err == nil {
		t.Error("Convolve(nil) succeeded, want error")
	}
	if _, err := it.Convolve([]float64{1.5}); err == nil {
		t.Error("Convolve(1.5) succeeded, want error")
	}
	if _, err := it.Convolve([]float64{0.5, -0.1}); err == nil {
		t.Error("Convolve(-0.1) succeeded, want error")
	}
}

// diurnal is a 24-hour utilization profile: busy during [start,
// start+hours) (wrapping past midnight), idle elsewhere.
func diurnal(start, hours int, busy, idle float64) []float64 {
	util := make([]float64, 24)
	for h := range util {
		util[h] = idle
		if (h-start+24)%24 < hours {
			util[h] = busy
		}
	}
	return util
}

// solarDay is a 24-hour grid day whose base intensity dips by dip
// across 10:00-16:00 (half-depth shoulders at 08:00-10:00 and
// 16:00-18:00) and peaks by dip/2 across 18:00-22:00.
func solarDay(base units.CarbonIntensity, dip float64) Trace {
	day := make(Trace, 24)
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

// TestConvolvePeriodicDay pins the convolution of a non-flat 24-hour
// trace: one operating year is 365 repeats of the day, so the integral
// is 365·Σ_h u_h·ci_h for any utilization profile, including one whose
// busy window wraps past midnight.
func TestConvolvePeriodicDay(t *testing.T) {
	day := testTrace(24)
	it, err := NewIntegrator(day)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	daily := func(util []float64) float64 {
		var sum float64
		for h, u := range util {
			sum += u * day[h].KgPerKWh()
		}
		return 365 * sum
	}
	check := func(util []float64) bool {
		got, err := it.Convolve(util)
		if err != nil {
			t.Fatalf("Convolve: %v", err)
		}
		want := daily(util)
		return math.Abs(got-want) <= 1e-12*want
	}
	for _, util := range [][]float64{diurnal(9, 8, 0.9, 0.1), diurnal(22, 4, 1, 0)} {
		if !check(util) {
			t.Errorf("Convolve(%v) != 365·Σ u·ci", util)
		}
	}
	f := func(raw [24]uint8) bool {
		util := make([]float64, 24)
		for h, v := range raw {
			util[h] = float64(v) / 255
		}
		return check(util)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// A 7-hour profile's joint period with the day (168 h) does not
	// divide the year, so the integral is the literal 8760-hour walk.
	week := []float64{1, 0.5, 0, 0.25, 0.75, 0.1, 0.9}
	var walk float64
	for h := 0; h < 8760; h++ {
		walk += week[h%7] * day[h%24].KgPerKWh()
	}
	if got, err := it.Convolve(week); err != nil || math.Abs(got-walk) > 1e-12*walk {
		t.Errorf("Convolve(7-hour profile) = %v, %v; want the hour-by-hour walk %v", got, err, walk)
	}
}

// TestConvolveSolarScheduling checks carbon-aware scheduling: the same
// 8 busy hours emit less inside a solar-dip day's clean midday window
// than across its evening peak.
func TestConvolveSolarScheduling(t *testing.T) {
	it, err := NewIntegrator(solarDay(units.GramsPerKWh(400), 0.5))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	midday, err := it.Convolve(diurnal(9, 8, 0.9, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	evening, err := it.Convolve(diurnal(16, 8, 0.9, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if midday >= evening {
		t.Errorf("midday scheduling %v should beat evening %v on a solar-dip day", midday, evening)
	}
}

// TestConvolveFlatDayMatchesDutyModel: on a flat day the schedule is
// irrelevant, and the hourly integral equals the flat duty-cycle model
// (deploy.OperationProfile) at the profile's mean utilization.
func TestConvolveFlatDayMatchesDutyModel(t *testing.T) {
	base := units.GramsPerKWh(400)
	day := Flat(base, 24)
	if m := day.Mean(); math.Abs(m.GramsPerKWh()-400) > 1e-9 {
		t.Errorf("flat day mean %v, want 400 g/kWh", m)
	}
	it, err := NewIntegrator(day)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	peak := units.Watts(1000)
	midday, evening := diurnal(9, 8, 0.9, 0.1), diurnal(16, 8, 0.9, 0.1)
	cm, err := it.Convolve(midday)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := it.Convolve(evening)
	if err != nil {
		t.Fatal(err)
	}
	peakKWh := peak.OverHours(1).KWh()
	if math.Abs(cm-ce)*peakKWh > 1e-9 {
		t.Errorf("flat day should be schedule-invariant: %v vs %v", cm, ce)
	}
	var mean float64
	for _, u := range midday {
		mean += u / 24
	}
	want, err := deploy.OperationProfile{PeakPower: peak, DutyCycle: mean}.AnnualCarbonAt(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm * peakKWh; math.Abs(got-want.Kilograms()) > 1e-6*want.Kilograms() {
		t.Errorf("flat-day hourly carbon %v kg != mean-duty model %v", got, want)
	}
}

// TestShiftFlatEqualsUnshifted: on a flat trace, packing run-hours
// into the "cleanest" hours changes nothing — shifted and uniform
// operation burn the same carbon.
func TestShiftFlatEqualsUnshifted(t *testing.T) {
	const ci, duty = 0.35, 0.3
	it, err := NewIntegrator(Flat(units.KgPerKWh(ci), 48))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	sp, err := it.Shift(duty * 24)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	for _, hours := range []float64{24, 8760, 2.5 * 8760} {
		shifted := sp.Window(0, hours)        // x peak hourly energy
		uniform := duty * it.Window(0, hours) // duty-scaled draw, x peak hourly energy
		if math.Abs(shifted-uniform) > 1e-9*uniform {
			t.Errorf("flat shift over %g h = %v, uniform %v", hours, shifted, uniform)
		}
	}
}

// TestShiftPicksCleanHours: on a varying trace the daily policy must
// beat uniform operation, and by no more than the trace's range bound.
func TestShiftPicksCleanHours(t *testing.T) {
	tr := testTrace(8760)
	it, err := NewIntegrator(tr)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	sp, err := it.Shift(0.3 * 24)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	shifted := sp.Window(0, 8760)
	uniform := 0.3 * it.Window(0, 8760)
	if shifted >= uniform {
		t.Errorf("shifted %v not below uniform %v on a varying trace", shifted, uniform)
	}
	min, _ := tr.Bounds()
	if floor := 0.3 * 24 * 365 * min.KgPerKWh(); shifted < floor {
		t.Errorf("shifted %v below physical floor %v", shifted, floor)
	}
}

// TestShiftValidation rejects bad run-hours and partial-day traces.
func TestShiftValidation(t *testing.T) {
	it, err := NewIntegrator(Flat(units.KgPerKWh(0.3), 24))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	for _, h := range []float64{0, -1, 25, math.NaN()} {
		if _, err := it.Shift(h); err == nil {
			t.Errorf("Shift(%g) succeeded, want error", h)
		}
	}
	odd, err := NewIntegrator(testTrace(30))
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	if _, err := odd.Shift(8); err == nil {
		t.Error("Shift on a 30-hour trace succeeded, want whole-day error")
	}
}

// TestSynthesize checks determinism and the structural signatures the
// siting studies depend on: solar-heavy grids dip at midday relative
// to evening, and the annual mean stays in the mix's neighborhood.
func TestSynthesize(t *testing.T) {
	reg, err := ByName("california")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	a, err := Synthesize(reg.Mix)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, _ := Synthesize(reg.Mix)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Synthesize not deterministic at hour %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != 8760 {
		t.Fatalf("trace length %d, want 8760", len(a))
	}
	var noon, evening float64
	for d := 0; d < 365; d++ {
		noon += a[d*24+12].KgPerKWh()
		evening += a[d*24+20].KgPerKWh()
	}
	if noon >= evening {
		t.Errorf("solar-heavy region: mean noon intensity %v not below evening %v", noon/365, evening/365)
	}
	scalar, err := reg.Intensity()
	if err != nil {
		t.Fatalf("Intensity: %v", err)
	}
	mean := a.Mean().KgPerKWh()
	if ratio := mean / scalar.KgPerKWh(); ratio < 0.7 || ratio > 1.3 {
		t.Errorf("trace mean %v strays from scalar mix intensity %v (ratio %v)", mean, scalar, ratio)
	}
}

// TestRegions covers the registry: sorted names, scalar/traced split,
// the valid-set error message, and integrator caching.
func TestRegions(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, gr := range grid.Regions() {
		r, err := ByName(string(gr))
		if err != nil {
			t.Fatalf("grid region %q missing from carbon registry: %v", gr, err)
		}
		if r.Traced {
			t.Errorf("grid region %q must stay scalar", gr)
		}
		if tr, _ := r.Trace(); tr != nil {
			t.Errorf("scalar region %q returned a trace", gr)
		}
	}
	_, err := ByName("atlantis")
	if err == nil {
		t.Fatal("ByName(atlantis) succeeded")
	}
	if !strings.Contains(err.Error(), "oregon") || !strings.Contains(err.Error(), "world") {
		t.Errorf("unknown-region error does not name the valid set: %v", err)
	}
	it1, err := IntegratorFor("oregon")
	if err != nil || it1 == nil {
		t.Fatalf("IntegratorFor(oregon) = %v, %v", it1, err)
	}
	it2, _ := IntegratorFor("oregon")
	if it1 != it2 {
		t.Error("IntegratorFor not cached: distinct pointers for the same region")
	}
	if it, err := IntegratorFor("world"); err != nil || it != nil {
		t.Errorf("IntegratorFor(world) = %v, %v; want nil, nil for a scalar region", it, err)
	}
}

// TestIntegratorMeanMatchesTrace pins the cached integrator's O(1)
// Mean to the trace's 8,760-hour sum for every traced preset region,
// bit for bit: the fleet study and the region list read the former in
// place of the latter.
func TestIntegratorMeanMatchesTrace(t *testing.T) {
	traced := 0
	for _, r := range Regions() {
		if !r.Traced {
			continue
		}
		traced++
		tr, err := r.Trace()
		if err != nil {
			t.Fatal(err)
		}
		it, err := IntegratorFor(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := it.Mean(), tr.Mean(); got != want {
			t.Errorf("%s: integrator mean %v, trace mean %v", r.Name, got, want)
		}
	}
	if traced == 0 {
		t.Fatal("no traced preset region")
	}
}

// TestValidate exercises the trace gate.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		t    Trace
		ok   bool
	}{
		{"empty", nil, false},
		{"negative", Trace{-0.1}, false},
		{"nan", Trace{units.CarbonIntensity(math.NaN())}, false},
		{"inf", Trace{units.CarbonIntensity(math.Inf(1))}, false},
		{"huge", Trace{99}, false},
		{"zero", Trace{0}, true},
		{"ok", testTrace(24), true},
		{"too-long", make(Trace, MaxTraceHours+1), false},
	}
	for _, c := range cases {
		if err := c.t.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestParseCSV covers both column shapes, headers, comments and the
// failure modes.
func TestParseCSV(t *testing.T) {
	tr, err := ParseCSV([]byte("# comment\nhour,g_per_kwh\n0,400\n1,350.5\n2,300\n"))
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	if len(tr) != 3 || tr[1] != units.GramsPerKWh(350.5) {
		t.Errorf("ParseCSV = %v", tr)
	}
	if tr, err = ParseCSV([]byte("400\n350\n")); err != nil || len(tr) != 2 {
		t.Errorf("bare-column ParseCSV = %v, %v", tr, err)
	}
	for _, bad := range []string{"", "0,400\n2,300\n", "a,b,c\n", "0,banana\n", "1,400\n"} {
		if _, err := ParseCSV([]byte(bad)); err == nil {
			t.Errorf("ParseCSV(%q) succeeded, want error", bad)
		}
	}
}

// TestParseJSON covers the bare-array and object forms.
func TestParseJSON(t *testing.T) {
	tr, err := ParseJSON([]byte("[400, 350, 300]"))
	if err != nil || len(tr) != 3 {
		t.Fatalf("ParseJSON array = %v, %v", tr, err)
	}
	tr, err = ParseJSON([]byte(`{"g_per_kwh": [420, 11]}`))
	if err != nil || len(tr) != 2 || tr[0] != units.GramsPerKWh(420) {
		t.Fatalf("ParseJSON object = %v, %v", tr, err)
	}
	for _, bad := range []string{"", "{}", `{"g_per_kwh": []}`, `{"other": [1]}`, "[-4]", "[1e99]", `"x"`} {
		if _, err := ParseJSON([]byte(bad)); err == nil {
			t.Errorf("ParseJSON(%q) succeeded, want error", bad)
		}
	}
}

// TestGramsRoundTrip pins the wire-unit round trip.
func TestGramsRoundTrip(t *testing.T) {
	in := []float64{400, 11, 0}
	tr, err := FromGrams(in)
	if err != nil {
		t.Fatalf("FromGrams: %v", err)
	}
	out := tr.Grams()
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-12 {
			t.Errorf("Grams[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}
