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

// PerDie evaluates the manufacturing model for one good die.
func PerDie(in Inputs) (Result, error) {
	if err := in.Node.Validate(); err != nil {
		return Result{}, err
	}
	if in.DieArea.MM2() <= 0 {
		return Result{}, fmt.Errorf("fab: die area must be positive, got %v", in.DieArea)
	}
	if in.RecycledMaterialFraction < 0 || in.RecycledMaterialFraction > 1 {
		return Result{}, fmt.Errorf("fab: recycled-material fraction %g outside [0,1]",
			in.RecycledMaterialFraction)
	}
	if in.RenewableTarget < 0 || in.RenewableTarget > 1 {
		return Result{}, fmt.Errorf("fab: renewable target %g outside [0,1]", in.RenewableTarget)
	}

	ci, err := grid.SiteIntensity(in.FabMix, grid.RegionTaiwan, in.RenewableTarget)
	if err != nil {
		return Result{}, err
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
		return Result{}, err
	}
	if y <= 0 {
		return Result{}, fmt.Errorf("fab: yield collapsed to %g for %v", y, in.DieArea)
	}

	// Effective processed area per good die.
	effArea := in.DieArea.Scale(1 / y)

	energy := in.Node.EPA.Times(effArea)
	rho := in.RecycledMaterialFraction
	mpaEff := in.Node.MPANew.KgPerCM2() *
		(rho*(1-in.Node.RecycledMaterialSaving) + (1 - rho))

	return Result{
		EnergyCarbon:   energy.Carbon(ci),
		GasCarbon:      in.Node.GPA.Times(effArea),
		MaterialCarbon: units.KgPerCM2(mpaEff).Times(effArea),
		FabEnergy:      energy,
		Yield:          y,
		FabIntensity:   ci,
	}, nil
}
