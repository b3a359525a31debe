package core

import (
	"math/rand"
	"reflect"
	"testing"

	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// TestQuickSetMatchesPair is the set equivalence property for the
// paper's FPGA/ASIC pair: a two-member CompiledSet reproduces the two
// independent Evaluate calls exactly — assessments, the FPGA:ASIC
// ratio (Ratio(0, 1)) and the winner — with the FPGA side also checked
// against the frozen reference of compiled_test.go, so the set path is
// compared against the pre-set implementation rather than against
// itself. The uniform comparison must match each member's O(1) path.
func TestQuickSetMatchesPair(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		pair := Set{
			randomPlatform(t, r, device.FPGA),
			randomPlatform(t, r, device.ASIC),
		}
		s := randomScenario(r)

		cs, err := pair.Compile()
		if err != nil {
			t.Fatalf("iter %d: set compile: %v", i, err)
		}

		// Full-scenario comparison: assessments and the FPGA:ASIC ratio
		// must be bit-identical to evaluating each side on its own, and
		// the FPGA side must match the frozen reference implementation.
		wantF, err := Evaluate(pair[0], s)
		if err != nil {
			t.Fatalf("iter %d: FPGA evaluate: %v", i, err)
		}
		wantA, err := Evaluate(pair[1], s)
		if err != nil {
			t.Fatalf("iter %d: ASIC evaluate: %v", i, err)
		}
		got, err := cs.Compare(s)
		if err != nil {
			t.Fatalf("iter %d: set compare: %v", i, err)
		}
		if !reflect.DeepEqual(got.Assessments[0], wantF) ||
			!reflect.DeepEqual(got.Assessments[1], wantA) {
			t.Fatalf("iter %d: set assessments diverge from per-platform Evaluate", i)
		}
		wantRatio := wantF.Total().Kilograms() / wantA.Total().Kilograms()
		if got.Ratio(0, 1) != wantRatio {
			t.Fatalf("iter %d: set ratio %g, want %g", i, got.Ratio(0, 1), wantRatio)
		}
		ref, err := evaluateReference(pair[0], s)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", i, err)
		}
		if !reflect.DeepEqual(got.Assessments[0], ref) {
			t.Fatalf("iter %d: set FPGA assessment diverges from frozen reference", i)
		}
		wantWinner := 1
		if wantRatio < 1 {
			wantWinner = 0
		}
		if got.Winner != wantWinner {
			t.Fatalf("iter %d: winner %d, want %d (ratio %g)", i, got.Winner, wantWinner, wantRatio)
		}

		// Uniform comparison through the O(1) path.
		n := 1 + r.Intn(12)
		lifetime := units.YearsOf(0.2 + r.Float64()*4)
		volume := 1 + r.Float64()*1e6
		wantUF, err := cs[0].EvaluateUniform(n, lifetime, volume, 0)
		if err != nil {
			t.Fatalf("iter %d: FPGA uniform: %v", i, err)
		}
		wantUA, err := cs[1].EvaluateUniform(n, lifetime, volume, 0)
		if err != nil {
			t.Fatalf("iter %d: ASIC uniform: %v", i, err)
		}
		gotU, err := cs.CompareUniform(n, lifetime, volume, 0)
		if err != nil {
			t.Fatalf("iter %d: set uniform: %v", i, err)
		}
		if !reflect.DeepEqual(gotU.Assessments[0], wantUF) ||
			!reflect.DeepEqual(gotU.Assessments[1], wantUA) ||
			gotU.Ratio(0, 1) != wantUF.Total().Kilograms()/wantUA.Total().Kilograms() {
			t.Fatalf("iter %d: uniform set comparison diverges from per-platform path", i)
		}
	}
}

// TestQuickReusableKindsMatchReference extends the frozen-reference
// equivalence to the new first-class GPU and CPU kinds: their reuse
// policies select the reference's Eq. 2 branch, so the policy-driven
// engine must agree bit-for-bit.
func TestQuickReusableKindsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		kind := device.GPU
		if i%2 == 0 {
			kind = device.CPU
		}
		p := randomPlatform(t, r, kind)
		s := randomScenario(r)
		want, err := evaluateReference(p, s)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", i, err)
		}
		got, err := Evaluate(p, s)
		if err != nil {
			t.Fatalf("iter %d: Evaluate: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %s evaluation diverges from reference:\ngot  %+v\nwant %+v",
				i, kind, got, want)
		}
	}
}

// TestSetComparisonShape pins the ratio matrix and winner semantics on
// a mixed four-kind set.
func TestSetComparisonShape(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	set := Set{
		randomPlatform(t, r, device.FPGA),
		randomPlatform(t, r, device.ASIC),
		randomPlatform(t, r, device.GPU),
		randomPlatform(t, r, device.CPU),
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	cs, err := set.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Set(); len(got) != 4 || got[2].Spec.Kind != device.GPU {
		t.Fatalf("CompiledSet.Set round trip: %+v", got)
	}
	sc, err := cs.CompareUniform(5, units.YearsOf(2), 1e5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Assessments) != 4 || len(sc.Ratios) != 4 {
		t.Fatalf("comparison shape: %d assessments, %d ratio rows", len(sc.Assessments), len(sc.Ratios))
	}
	minTotal := sc.Assessments[sc.Winner].Total()
	for i, a := range sc.Assessments {
		if a.Total() < minTotal {
			t.Errorf("winner %d is not minimal: %d has %v < %v", sc.Winner, i, a.Total(), minTotal)
		}
		for j := range sc.Assessments {
			want := sc.Assessments[i].Total().Kilograms() / sc.Assessments[j].Total().Kilograms()
			if i == j {
				want = 1
			}
			if sc.Ratio(i, j) != want {
				t.Errorf("ratio[%d][%d] = %g, want %g", i, j, sc.Ratio(i, j), want)
			}
		}
	}
	if sc.WinnerAssessment().Platform != sc.Assessments[sc.Winner].Platform {
		t.Error("WinnerAssessment must return the winner entry")
	}
	if _, err := (Set{}).Compile(); err == nil {
		t.Error("empty set must not compile")
	}
	if (Set{}).Validate() == nil {
		t.Error("empty set must not validate")
	}
	if _, err := (CompiledSet{}).Compare(Uniform("x", 1, units.YearsOf(1), 1, 0)); err == nil {
		t.Error("empty compiled set must not compare")
	}
}
