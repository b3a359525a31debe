package isoperf

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

func TestTable2Ratios(t *testing.T) {
	want := map[string][2]float64{
		"DNN":     {4, 3},
		"ImgProc": {7.42, 1.25},
		"Crypto":  {1, 1},
	}
	ds := Domains()
	if len(ds) != 3 {
		t.Fatalf("domains: %d, want 3", len(ds))
	}
	for _, d := range ds {
		w, ok := want[d.Name]
		if !ok {
			t.Errorf("unexpected domain %s", d.Name)
			continue
		}
		if d.AreaRatio != w[0] || d.PowerRatio != w[1] {
			t.Errorf("%s ratios (%g, %g), want %v", d.Name, d.AreaRatio, d.PowerRatio, w)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s invalid: %v", d.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("DNN")
	if err != nil {
		t.Fatal(err)
	}
	if d.AreaRatio != 4 {
		t.Errorf("DNN area ratio %g", d.AreaRatio)
	}
	if _, err := ByName("Quantum"); err == nil {
		t.Error("unknown domain must error")
	}
}

func TestValidateRejectsBadDomains(t *testing.T) {
	base, _ := ByName("DNN")
	mutations := []func(*Domain){
		func(d *Domain) { d.Name = "" },
		func(d *Domain) { d.AreaRatio = 0.5 },
		func(d *Domain) { d.PowerRatio = 0 },
		func(d *Domain) { d.ASICArea = 0 },
		func(d *Domain) { d.ASICPeakPower = 0 },
		func(d *Domain) { d.DutyCycle = 0 },
		func(d *Domain) { d.DutyCycle = 1.5 },
		func(d *Domain) { d.DesignEngineers = 0 },
	}
	for i, mut := range mutations {
		d := base
		mut(&d)
		if d.Validate() == nil {
			t.Errorf("mutation %d should invalidate", i)
		}
		if _, err := d.Set(); err == nil {
			t.Errorf("mutation %d: Set should fail", i)
		}
	}
}

// TestPairConstruction pins the FPGA/ASIC pair the paper compares:
// members 0 and 1 of the domain set.
func TestPairConstruction(t *testing.T) {
	d, _ := ByName("DNN")
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	fpga, asic := set[0], set[1]
	if fpga.Spec.Kind != device.FPGA || asic.Spec.Kind != device.ASIC {
		t.Fatalf("set members 0/1 are %s/%s, want fpga/asic", fpga.Spec.Kind, asic.Spec.Kind)
	}
	// FPGA silicon and power follow Table 2 exactly.
	if fpga.Spec.DieArea != asic.Spec.DieArea.Scale(4) {
		t.Errorf("FPGA area %v, want 4x %v", fpga.Spec.DieArea, asic.Spec.DieArea)
	}
	if fpga.Spec.PeakPower != asic.Spec.PeakPower.Scale(3) {
		t.Errorf("FPGA power %v, want 3x %v", fpga.Spec.PeakPower, asic.Spec.PeakPower)
	}
	// Both sides share the ASIC yield so embodied scales linearly.
	if fpga.YieldOverride != asic.YieldOverride || fpga.YieldOverride <= 0 {
		t.Errorf("yield overrides: %g vs %g", fpga.YieldOverride, asic.YieldOverride)
	}
	fdc, err := fpga.DeviceCost()
	if err != nil {
		t.Fatal(err)
	}
	adc, err := asic.DeviceCost()
	if err != nil {
		t.Fatal(err)
	}
	gotRatio := fdc.Manufacturing.Total().Kilograms() / adc.Manufacturing.Total().Kilograms()
	if math.Abs(gotRatio-4) > 1e-9 {
		t.Errorf("embodied manufacturing ratio %g, want 4", gotRatio)
	}
	// Design CFP is shared (same staffing, fabric regularity).
	fd, _ := fpga.DesignCFP()
	ad, _ := asic.DesignCFP()
	if fd != ad {
		t.Errorf("design CFP differs: %v vs %v", fd, ad)
	}
}

// TestSetExtendsPair asserts the domain set is the FPGA/ASIC pair plus
// the calibrated GPU and CPU platforms.
func TestSetExtendsPair(t *testing.T) {
	for _, d := range Domains() {
		set, err := d.Set()
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 4 {
			t.Fatalf("%s set has %d platforms, want 4 (FPGA, ASIC, GPU, CPU)", d.Name, len(set))
		}
		if set[0].Spec.Kind != device.FPGA || set[1].Spec.Kind != device.ASIC {
			t.Errorf("%s set members 0/1 are %s/%s, want fpga/asic", d.Name, set[0].Spec.Kind, set[1].Spec.Kind)
		}
		gpu, cpu := set[2], set[3]
		if gpu.Spec.Kind != "gpu" || cpu.Spec.Kind != "cpu" {
			t.Fatalf("%s set kinds: %s, %s", d.Name, gpu.Spec.Kind, cpu.Spec.Kind)
		}
		if gpu.Spec.DieArea != d.ASICArea.Scale(d.GPUAreaRatio) ||
			gpu.Spec.PeakPower != d.ASICPeakPower.Scale(d.GPUPowerRatio) {
			t.Errorf("%s GPU spec off calibration: %+v", d.Name, gpu.Spec)
		}
		if gpu.YieldOverride != set[1].YieldOverride || gpu.DutyCycle != d.DutyCycle {
			t.Errorf("%s GPU must share the common deployment knobs", d.Name)
		}
	}
}

// TestPairCache asserts every domain's memoized FPGA/ASIC pair
// (members 0 and 1 of Set) reproduces a fresh build, is isolated from
// caller mutation of either member, and that a modified domain keys a
// different entry.
func TestPairCache(t *testing.T) {
	for _, d := range Domains() {
		fresh, err := d.buildSet()
		if err != nil {
			t.Fatal(err)
		}
		cached, err := d.Set()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached[:2], fresh[:2]) {
			t.Fatalf("%s: cached pair diverges from fresh build:\ngot  %+v\nwant %+v", d.Name, cached[:2], fresh[:2])
		}
		// Mutating a returned pair must not poison later lookups.
		cached[0].DutyCycle = 0.99
		cached[1].Spec.PeakPower = units.Watts(1)
		again, err := d.Set()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again[:2], fresh[:2]) {
			t.Fatalf("%s: cache returned a mutated pair", d.Name)
		}
		variant := d
		variant.DutyCycle = 0.17
		vset, err := variant.Set()
		if err != nil {
			t.Fatal(err)
		}
		if vset[0].DutyCycle != 0.17 || vset[1].DutyCycle != 0.17 {
			t.Fatalf("%s: variant domain pair duty %g/%g, want 0.17", d.Name, vset[0].DutyCycle, vset[1].DutyCycle)
		}
	}
}

// TestSetCacheIsolation asserts memoized sets reproduce a fresh build,
// are isolated from caller mutation, that modified domains do not
// collide with calibrated ones, and that ratio-free domains drop the
// extension platforms.
func TestSetCacheIsolation(t *testing.T) {
	d, _ := ByName("DNN")
	fresh, err := d.buildSet()
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, fresh) {
		t.Fatalf("cached set diverges from fresh build:\ngot  %+v\nwant %+v", set, fresh)
	}
	set[0].DutyCycle = 0.99
	again, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	if again[0].DutyCycle == 0.99 {
		t.Fatal("set cache returned a mutated set")
	}
	variant := d
	variant.DutyCycle = 0.17
	vset, err := variant.Set()
	if err != nil {
		t.Fatal(err)
	}
	if vset[0].DutyCycle != 0.17 {
		t.Fatalf("variant domain duty %g, want 0.17", vset[0].DutyCycle)
	}
	dd := d
	dd.GPUAreaRatio, dd.GPUPowerRatio = 0, 0
	dd.CPUAreaRatio, dd.CPUPowerRatio = 0, 0
	bare, err := dd.Set()
	if err != nil {
		t.Fatal(err)
	}
	if len(bare) != 2 {
		t.Fatalf("ratio-free domain set has %d platforms, want 2", len(bare))
	}
	bad := d
	bad.GPUPowerRatio = 0
	if bad.Validate() == nil {
		t.Error("GPU area without power ratio must invalidate")
	}
}

// compiledPair compiles the domain's FPGA/ASIC pair: members 0 and 1
// of its platform set.
func compiledPair(t *testing.T, name string) core.CompiledSet {
	t.Helper()
	d, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Set()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := set[:2].Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// The headline §4.2 experiment-A result: DNN A2F after 6 applications,
// ImgProc after 12, Crypto after the first.
func TestPaperCrossoverNumApps(t *testing.T) {
	want := map[string]int{"DNN": 6, "ImgProc": 12, "Crypto": 2}
	for _, d := range Domains() {
		pr := compiledPair(t, d.Name)
		n, found, err := core.CrossoverNumAppsBetween(pr[0], pr[1], ReferenceLifetime(), ReferenceVolume, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !found || n != want[d.Name] {
			t.Errorf("%s A2F at %d apps (found=%v), paper expects %d",
				d.Name, n, found, want[d.Name])
		}
	}
}

// The §4.2 experiment-B result: DNN F2A at ~1.6 years; ImgProc always
// ASIC; Crypto always FPGA across T in [0.2, 2.5].
func TestPaperCrossoverLifetime(t *testing.T) {
	pr := compiledPair(t, "DNN")
	tstar, found, err := core.CrossoverLifetimeBetween(pr[0], pr[1], ReferenceNumApps, ReferenceVolume, 0,
		units.YearsOf(0.2), units.YearsOf(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if !found || math.Abs(tstar.Years()-1.6) > 0.1 {
		t.Errorf("DNN F2A at %v (found=%v), paper expects ~1.6 years", tstar, found)
	}

	check := func(name string, wantFPGAAlways bool) {
		p := compiledPair(t, name)
		for _, ty := range []float64{0.2, 1.0, 2.5} {
			c, err := p.Compare(core.Uniform("b", ReferenceNumApps, units.YearsOf(ty), ReferenceVolume, 0))
			if err != nil {
				t.Fatal(err)
			}
			ratio := c.Ratio(0, 1)
			if wantFPGAAlways && ratio >= 1 {
				t.Errorf("%s at T=%g: ratio %g, FPGA should always win", name, ty, ratio)
			}
			if !wantFPGAAlways && ratio <= 1 {
				t.Errorf("%s at T=%g: ratio %g, ASIC should always win", name, ty, ratio)
			}
		}
	}
	check("Crypto", true)
	check("ImgProc", false)
}

// The §4.2 experiment-C result: ImgProc F2A at ~300K units; DNN F2A in
// the high-hundreds-of-thousands (the paper extrapolates "2M" beyond
// its own 1e6 sweep); Crypto always FPGA.
func TestPaperCrossoverVolume(t *testing.T) {
	pr := compiledPair(t, "ImgProc")
	v, found, err := core.CrossoverVolumeBetween(pr[0], pr[1], ReferenceNumApps, ReferenceLifetime(), 0, 1e3, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !found || math.Abs(v-300e3) > 15e3 {
		t.Errorf("ImgProc F2A at %g units (found=%v), paper expects ~300K", v, found)
	}

	pd := compiledPair(t, "DNN")
	vd, found, err := core.CrossoverVolumeBetween(pd[0], pd[1], ReferenceNumApps, ReferenceLifetime(), 0, 1e3, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !found || vd < 4e5 || vd > 3e6 {
		t.Errorf("DNN F2A at %g units (found=%v), expected within [0.4M, 3M]", vd, found)
	}

	pc := compiledPair(t, "Crypto")
	_, found, err = core.CrossoverVolumeBetween(pc[0], pc[1], ReferenceNumApps, ReferenceLifetime(), 0, 1e3, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("Crypto should have no volume crossover (FPGA always wins)")
	}
}

// Property: totals are homogeneous of degree one in volume — scaling
// every application's volume by k scales the volume-proportional terms
// while the one-time design CFP stays fixed, so the total is strictly
// sub-linear but the hardware+operation share is exactly linear.
func TestQuickVolumeHomogeneity(t *testing.T) {
	dnn, err := ByName("DNN")
	if err != nil {
		t.Fatal(err)
	}
	set, err := dnn.Set()
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawV float64, rawK uint8) bool {
		v := 100 + math.Mod(math.Abs(rawV), 1e6)
		k := 2 + float64(rawK%8)
		if math.IsNaN(v) {
			return true
		}
		small, err1 := core.Evaluate(set[0], core.Uniform("s", 3, units.YearsOf(1), v, 0))
		big, err2 := core.Evaluate(set[0], core.Uniform("b", 3, units.YearsOf(1), v*k, 0))
		if err1 != nil || err2 != nil {
			return false
		}
		// Volume-proportional part scales exactly.
		varSmall := small.Total() - small.Breakdown.Design - small.Breakdown.AppDevelopment
		varBig := big.Total() - big.Breakdown.Design - big.Breakdown.AppDevelopment
		if math.Abs(varBig.Kilograms()-k*varSmall.Kilograms()) > 1e-6*varBig.Kilograms() {
			return false
		}
		// The total is sub-linear (fixed design amortizes).
		return big.Total().Kilograms() < k*small.Total().Kilograms()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The Fig. 2 headline: one application leaves the FPGA well above the
// ASIC; ten applications put it ~20-25% below.
func TestPaperFig2Headline(t *testing.T) {
	pr := compiledPair(t, "DNN")
	one, err := pr.Compare(core.Uniform("one", 1, ReferenceLifetime(), ReferenceVolume, 0))
	if err != nil {
		t.Fatal(err)
	}
	ten, err := pr.Compare(core.Uniform("ten", 10, ReferenceLifetime(), ReferenceVolume, 0))
	if err != nil {
		t.Fatal(err)
	}
	if one.Ratio(0, 1) <= 1.5 {
		t.Errorf("single-app ratio %g, expected FPGA clearly above ASIC", one.Ratio(0, 1))
	}
	saving := 1 - ten.Ratio(0, 1)
	if saving < 0.18 || saving > 0.30 {
		t.Errorf("ten-app saving %.1f%%, paper reports ~25%%", saving*100)
	}
}

// TestCompiledSetMemo checks the process-wide compiled-set memo: every
// calibrated domain compiles to its Set's platforms in Set order, a
// second lookup returns the same compilations, and unknown names fail
// without being cached.
func TestCompiledSetMemo(t *testing.T) {
	for _, d := range Domains() {
		cs, err := CompiledSet(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		set, err := d.Set()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cs.Set(), set) {
			t.Fatalf("%s: compiled members diverge from Set():\ngot  %+v\nwant %+v", d.Name, cs.Set(), set)
		}
		again, err := CompiledSet(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cs {
			if again[i] != cs[i] {
				t.Fatalf("%s: member %d recompiled on the second lookup", d.Name, i)
			}
		}
	}
	for _, name := range []string{"dnn", "Quantum", ""} {
		if _, err := CompiledSet(name); err == nil {
			t.Errorf("CompiledSet(%q) must fail", name)
		}
	}
}
