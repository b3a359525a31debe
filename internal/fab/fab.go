// Package fab implements the manufacturing carbon-footprint model of
// GreenFPGA (paper §3.2(2)). Per good die,
//
//	C_mfg = (CI_fab x EPA + GPA + MPA_eff) x A / Y(A)
//
// where CI_fab is the fab's energy carbon intensity, EPA/GPA/MPA come
// from the technology-node database, Y is the die yield, and the
// materials term follows Eq. 5 of the paper:
//
//	MPA_eff = rho x MPA_recycled + (1 - rho) x MPA_new
//
// with rho the recycled-material sourcing fraction.
package fab

import (
	"fmt"

	"greenfpga/internal/grid"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
	"greenfpga/internal/yield"
)

// Inputs describes one die to be manufactured.
type Inputs struct {
	// Node supplies the per-area coefficients and defaults for yield.
	Node technode.Node
	// DieArea is the silicon area of the die.
	DieArea units.Area
	// FabMix is the energy mix powering the fab. Nil means the Taiwan
	// preset, where the bulk of the cited capacity sits.
	FabMix grid.Mix
	// RenewableTarget optionally raises the fab mix's renewable share
	// (power-purchase agreements); zero leaves the mix untouched.
	RenewableTarget float64
	// RecycledMaterialFraction is rho in Eq. 5 (0..1).
	RecycledMaterialFraction float64
	// Yield overrides the yield calculation. A zero value uses the
	// Murphy model with the node's defect density.
	Yield yield.Calculator
}

// Result is the per-good-die manufacturing footprint, broken into the
// sources the paper's Fig. 3 distinguishes.
type Result struct {
	// EnergyCarbon is the fab electricity component (CI_fab x EPA x A/Y).
	EnergyCarbon units.Mass
	// GasCarbon is the direct process-gas component (GPA x A/Y).
	GasCarbon units.Mass
	// MaterialCarbon is the sourcing component after recycling credit
	// (MPA_eff x A/Y).
	MaterialCarbon units.Mass
	// FabEnergy is the electricity consumed for this good die.
	FabEnergy units.Energy
	// Yield is the die yield used.
	Yield float64
	// FabIntensity is the carbon intensity of the fab energy after any
	// renewable uplift.
	FabIntensity units.CarbonIntensity
}

// Total is the complete manufacturing footprint per good die.
func (r Result) Total() units.Mass {
	return r.EnergyCarbon + r.GasCarbon + r.MaterialCarbon
}

// PerDie evaluates the manufacturing model for one good die: the
// draw-invariant Prepare, then Die.PerDie at the recycled-material
// fraction.
func PerDie(in Inputs) (Result, error) {
	d, err := Prepare(in)
	if err != nil {
		return Result{}, err
	}
	return d.PerDie(in.RecycledMaterialFraction)
}

// Die is one die prepared for manufacture: everything of PerDie but
// Eq. 5's recycled-material sourcing. Its Result carries the fab-grid
// intensity, the yield and the energy and gas terms; the material
// term waits for rho.
type Die struct {
	res     Result
	effArea units.Area
	mpaNew  units.MassPerArea
	saving  float64
}

// Prepare validates every input but the recycled-material fraction
// (which it ignores), resolves the fab grid and the yield, and
// evaluates the energy and gas terms.
func Prepare(in Inputs) (Die, error) {
	if err := in.Node.Validate(); err != nil {
		return Die{}, err
	}
	if in.DieArea.MM2() <= 0 {
		return Die{}, fmt.Errorf("fab: die area must be positive, got %v", in.DieArea)
	}
	if in.RenewableTarget < 0 || in.RenewableTarget > 1 {
		return Die{}, fmt.Errorf("fab: renewable target %g outside [0,1]", in.RenewableTarget)
	}

	ci, err := grid.SiteIntensity(in.FabMix, grid.RegionTaiwan, in.RenewableTarget)
	if err != nil {
		return Die{}, err
	}

	yc := in.Yield
	if yc.Model == "" && yc.DefectDensity == 0 {
		yc = yield.Calculator{
			Model:          yield.Murphy,
			DefectDensity:  in.Node.DefectDensity,
			CriticalLayers: in.Node.CriticalLayers,
		}
	}
	y, err := yc.DieYield(in.DieArea)
	if err != nil {
		return Die{}, err
	}
	if y <= 0 {
		return Die{}, fmt.Errorf("fab: yield collapsed to %g for %v", y, in.DieArea)
	}

	// Effective processed area per good die.
	effArea := in.DieArea.Scale(1 / y)

	energy := in.Node.EPA.Times(effArea)
	return Die{
		res: Result{
			EnergyCarbon: energy.Carbon(ci),
			GasCarbon:    in.Node.GPA.Times(effArea),
			FabEnergy:    energy,
			Yield:        y,
			FabIntensity: ci,
		},
		effArea: effArea,
		mpaNew:  in.Node.MPANew,
		saving:  in.Node.RecycledMaterialSaving,
	}, nil
}

// PerDie completes the prepared die's footprint at recycled-material
// fraction rho (Eq. 5).
func (d *Die) PerDie(rho float64) (Result, error) {
	if rho < 0 || rho > 1 {
		return Result{}, fmt.Errorf("fab: recycled-material fraction %g outside [0,1]", rho)
	}
	mpaEff := d.mpaNew.KgPerCM2() * (rho*(1-d.saving) + (1 - rho))
	r := d.res
	r.MaterialCarbon = units.KgPerCM2(mpaEff).Times(d.effArea)
	return r, nil
}
