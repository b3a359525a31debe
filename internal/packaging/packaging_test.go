package packaging

import (
	"math"
	"testing"
	"testing/quick"

	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

func TestMonolithicHandValues(t *testing.T) {
	// 1 cm^2 die, factor 2 => 2 cm^2 package on a pure-coal line.
	res, err := CFP(Inputs{
		DieAreas:    []units.Area{units.CM2(1)},
		AssemblyMix: grid.Mix{grid.Coal: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PackageArea.CM2()-2) > 1e-12 {
		t.Errorf("package area %v, want 2 cm^2", res.PackageArea)
	}
	wantSubstrate := 0.10 * 2
	if math.Abs(res.SubstrateCarbon.Kilograms()-wantSubstrate) > 1e-12 {
		t.Errorf("substrate %v, want %g kg", res.SubstrateCarbon, wantSubstrate)
	}
	wantAssembly := 0.15 * 2 * 0.820
	if math.Abs(res.AssemblyCarbon.Kilograms()-wantAssembly) > 1e-12 {
		t.Errorf("assembly %v, want %g kg", res.AssemblyCarbon, wantAssembly)
	}
	if res.InterposerCarbon != 0 {
		t.Error("monolithic package must have no interposer carbon")
	}
	if math.Abs(res.Total().Kilograms()-(wantSubstrate+wantAssembly)) > 1e-12 {
		t.Errorf("total %v", res.Total())
	}
}

func TestMonolithicDefaults(t *testing.T) {
	res, err := CFP(Inputs{DieAreas: []units.Area{units.MM2(150)}})
	if err != nil {
		t.Fatal(err)
	}
	// A 150 mm^2 die should land in the sub-kilogram band.
	if res.Total().Kilograms() < 0.1 || res.Total().Kilograms() > 2 {
		t.Errorf("monolithic 150mm2 total %v outside 0.1-2 kg band", res.Total())
	}
}

func TestInterposerAddsCarbon(t *testing.T) {
	dies := []units.Area{units.MM2(100), units.MM2(100), units.MM2(50)}
	mono, err := CFP(Inputs{DieAreas: dies[:1]})
	if err != nil {
		t.Fatal(err)
	}
	chiplet, err := CFP(Inputs{Style: Interposer25D, DieAreas: dies})
	if err != nil {
		t.Fatal(err)
	}
	if chiplet.InterposerCarbon <= 0 {
		t.Error("2.5D package must charge interposer carbon")
	}
	if chiplet.Total() <= mono.Total() {
		t.Errorf("2.5D total %v should exceed monolithic %v", chiplet.Total(), mono.Total())
	}
}

func TestCustomCoefficients(t *testing.T) {
	base, _ := CFP(Inputs{DieAreas: []units.Area{units.CM2(1)}})
	custom, err := CFP(Inputs{
		DieAreas:                []units.Area{units.CM2(1)},
		PackageAreaFactor:       3,
		SubstrateCarbonKgPerCM2: 0.2,
		AssemblyEnergyKWhPerCM2: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if custom.Total() <= base.Total() {
		t.Errorf("larger coefficients must grow footprint: %v vs %v", custom.Total(), base.Total())
	}
	if math.Abs(custom.PackageArea.CM2()-3) > 1e-12 {
		t.Errorf("package area %v, want 3 cm^2", custom.PackageArea)
	}
}

func TestCFPErrors(t *testing.T) {
	good := []units.Area{units.MM2(100)}
	cases := []Inputs{
		{Style: "flip-chip-bga-9000", DieAreas: good},
		{DieAreas: nil},
		{DieAreas: []units.Area{units.MM2(100), units.MM2(100)}}, // monolithic, 2 dice
		{DieAreas: []units.Area{units.MM2(0)}},
		{DieAreas: good, PackageAreaFactor: 0.5},
		{DieAreas: good, SubstrateCarbonKgPerCM2: -1},
		{DieAreas: good, AssemblyEnergyKWhPerCM2: -1},
		{DieAreas: good, AssemblyMix: grid.Mix{"diesel": 1}},
	}
	for i, in := range cases {
		if _, err := CFP(in); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSingleDieCFPMatchesCFP checks the single-die entry against CFP
// on a one-element die list, for both styles.
func TestSingleDieCFPMatchesCFP(t *testing.T) {
	area := units.MM2(137)
	for _, style := range []Style{"", Monolithic, Interposer25D} {
		in := Inputs{Style: style, PackageAreaFactor: 1.7, AssemblyMix: grid.Mix{"coal": 0.5, "solar": 0.5}}
		got, err := SingleDieCFP(in, area)
		if err != nil {
			t.Fatal(err)
		}
		in.DieAreas = []units.Area{area}
		want, err := CFP(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("style %q: SingleDieCFP %+v, CFP %+v", style, got, want)
		}
	}
	if _, err := SingleDieCFP(Inputs{}, units.MM2(0)); err == nil {
		t.Error("SingleDieCFP accepted a zero-area die")
	}
}

// Property: packaging carbon scales linearly with die area for
// monolithic packages.
func TestQuickLinearInArea(t *testing.T) {
	f := func(raw float64) bool {
		a := 1 + math.Mod(math.Abs(raw), 500)
		if math.IsNaN(a) {
			return true
		}
		one, err1 := CFP(Inputs{DieAreas: []units.Area{units.MM2(a)}})
		two, err2 := CFP(Inputs{DieAreas: []units.Area{units.MM2(2 * a)}})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(two.Total().Kilograms()-2*one.Total().Kilograms()) <
			1e-9*math.Max(1, two.Total().Kilograms())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
