package grid

import (
	"math"
	"math/rand"
	"testing"

	"greenfpga/internal/units"
)

// legacyIntensity is a frozen copy of the original Mix.Intensity:
// normalize into a fresh map, then sum the normalized shares in
// sorted source order. The single-pass Intensity must reproduce it bit
// for bit.
func legacyIntensity(m Mix) (units.CarbonIntensity, error) {
	norm, err := m.Normalize()
	if err != nil {
		return 0, err
	}
	var ci float64
	for _, s := range Sources() {
		if f, ok := norm[s]; ok {
			ci += f * sourceIntensity[s].KgPerKWh()
		}
	}
	return units.KgPerKWh(ci), nil
}

// TestPresetIntensityMatchesByRegion pins the memoized preset
// intensities to the computation they replace, for every region.
func TestPresetIntensityMatchesByRegion(t *testing.T) {
	for _, r := range Regions() {
		m, err := ByRegion(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Intensity()
		if err != nil {
			t.Fatal(err)
		}
		got, err := PresetIntensity(r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.KgPerKWh()) != math.Float64bits(want.KgPerKWh()) {
			t.Errorf("%s: PresetIntensity %v, ByRegion().Intensity() %v", r, got, want)
		}
		if legacy, _ := legacyIntensity(m); legacy != want {
			t.Errorf("%s: Intensity %v, legacy %v", r, want, legacy)
		}
	}
	if _, err := PresetIntensity("atlantis"); err == nil {
		t.Error("unknown region must error")
	}
}

// TestIntensityMatchesLegacy draws seeded random mixes — random source
// subsets with shares across many magnitudes, unnormalized — and
// checks Intensity against the frozen normalize-then-sum code bit for
// bit, plus the shared error cases.
func TestIntensityMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	srcs := Sources()
	for k := 0; k < 5000; k++ {
		m := Mix{}
		for _, s := range srcs {
			switch rng.Intn(3) {
			case 0:
				m[s] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			case 1:
				m[s] = float64(rng.Intn(100))
			}
		}
		got, gotErr := m.Intensity()
		want, wantErr := legacyIntensity(m)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("mix %v: error %v, legacy %v", m, gotErr, wantErr)
		}
		if math.Float64bits(got.KgPerKWh()) != math.Float64bits(want.KgPerKWh()) {
			t.Fatalf("mix %v: Intensity %v, legacy %v", m, got.KgPerKWh(), want.KgPerKWh())
		}
	}
	for name, m := range map[string]Mix{
		"empty":          {},
		"unknown source": {Coal: 1, "plutonium": 1},
		"negative share": {Coal: 1, Gas: -0.5},
		"zero sum":       {Coal: 0, Wind: 0},
	} {
		_, err := m.Intensity()
		_, legacyErr := legacyIntensity(m)
		if err == nil || legacyErr == nil || err.Error() != legacyErr.Error() {
			t.Errorf("%s: error %v, legacy %v", name, err, legacyErr)
		}
	}
}

// TestSourcesReturnsCopy: callers may reorder the returned slice
// without disturbing the summation order.
func TestSourcesReturnsCopy(t *testing.T) {
	a := Sources()
	a[0], a[len(a)-1] = a[len(a)-1], a[0]
	if b := Sources(); b[0] == a[0] {
		t.Errorf("Sources shares its backing array: %v vs %v", a, b)
	}
}
