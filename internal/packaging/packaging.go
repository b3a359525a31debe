// Package packaging implements the package-manufacture and assembly
// carbon model (paper §3.2(3)). The paper uses the monolithic package
// model of ECO-CHIP [5]; this implementation also provides the 2.5D
// silicon-interposer variant from the same source as an extension, so
// chiplet-style FPGAs can be studied as an ablation.
//
// The monolithic model charges a substrate-manufacture carbon per unit
// package area plus an assembly-energy carbon, with the package area a
// multiple of the die area. The interposer variant adds the silicon
// interposer (manufactured on a mature node) and per-die bonding energy.
package packaging

import (
	"fmt"

	"greenfpga/internal/grid"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
)

// Style selects the package construction.
type Style string

// Supported package styles.
const (
	// Monolithic is a single-die laminate package (paper default).
	Monolithic Style = "monolithic"
	// Interposer25D is a 2.5D silicon-interposer package (extension).
	Interposer25D Style = "interposer-2.5d"
)

// Model coefficients. These are ECO-CHIP-magnitude defaults; all are
// overridable through Inputs.
const (
	// DefaultPackageAreaFactor is package area / total die area.
	DefaultPackageAreaFactor = 2.0
	// DefaultSubstrateCarbonKgPerCM2 is laminate substrate manufacture
	// carbon per package area.
	DefaultSubstrateCarbonKgPerCM2 = 0.10
	// DefaultAssemblyEnergyKWhPerCM2 is pick/place/bond/test energy per
	// package area.
	DefaultAssemblyEnergyKWhPerCM2 = 0.15
	// DefaultBondingEnergyKWhPerDie is the per-die hybrid-bonding energy
	// for 2.5D assembly.
	DefaultBondingEnergyKWhPerDie = 0.8
	// InterposerAreaFactor is interposer area / total die area.
	InterposerAreaFactor = 1.1
)

// Inputs describes one package.
type Inputs struct {
	// Style selects monolithic (default) or 2.5D assembly.
	Style Style
	// DieAreas are the silicon dice inside the package; monolithic
	// packages hold exactly one.
	DieAreas []units.Area
	// PackageAreaFactor overrides DefaultPackageAreaFactor when > 0.
	PackageAreaFactor float64
	// SubstrateCarbonKgPerCM2 overrides the substrate coefficient when > 0.
	SubstrateCarbonKgPerCM2 float64
	// AssemblyEnergyKWhPerCM2 overrides the assembly coefficient when > 0.
	AssemblyEnergyKWhPerCM2 float64
	// AssemblyMix powers the assembly line; nil means the Taiwan preset.
	AssemblyMix grid.Mix
	// InterposerNode manufactures the interposer for 2.5D packages;
	// a zero value means the mature 28nm table entry.
	InterposerNode technode.Node
}

// Result is the per-package carbon, split by source.
type Result struct {
	// SubstrateCarbon is laminate manufacture.
	SubstrateCarbon units.Mass
	// AssemblyCarbon is assembly and test energy.
	AssemblyCarbon units.Mass
	// InterposerCarbon is the silicon interposer (2.5D only).
	InterposerCarbon units.Mass
	// PackageArea is the resolved package footprint.
	PackageArea units.Area
}

// Total is the complete packaging footprint.
func (r Result) Total() units.Mass {
	return r.SubstrateCarbon + r.AssemblyCarbon + r.InterposerCarbon
}

// CFP evaluates the packaging model.
func CFP(in Inputs) (Result, error) { return cfp(in, in.DieAreas) }

// SingleDieCFP is CFP for a package around one die of the given area
// — the per-device call of every platform; in.DieAreas is ignored.
// CFP's inputs escape through its error paths, so a one-element
// DieAreas slice built for it costs a heap allocation per call; the
// die list here lives on the stack.
func SingleDieCFP(in Inputs, area units.Area) (Result, error) {
	dies := [1]units.Area{area}
	return cfp(in, dies[:])
}

// cfp is CFP with the dice passed apart from in, so they do not share
// in's escape.
func cfp(in Inputs, dies []units.Area) (Result, error) {
	style := in.Style
	if style == "" {
		style = Monolithic
	}
	if style != Monolithic && style != Interposer25D {
		return Result{}, fmt.Errorf("packaging: unknown style %q", style)
	}
	if len(dies) == 0 {
		return Result{}, fmt.Errorf("packaging: no dice")
	}
	if style == Monolithic && len(dies) != 1 {
		return Result{}, fmt.Errorf("packaging: monolithic package holds one die, got %d", len(dies))
	}
	var totalDie units.Area
	for _, a := range dies {
		if a.MM2() <= 0 {
			return Result{}, fmt.Errorf("packaging: die area must be positive, got %v", a)
		}
		totalDie += a
	}

	factor := in.PackageAreaFactor
	if factor == 0 {
		factor = DefaultPackageAreaFactor
	}
	if factor < 1 {
		return Result{}, fmt.Errorf("packaging: package area factor %g must be >= 1", factor)
	}
	substrate := in.SubstrateCarbonKgPerCM2
	if substrate == 0 {
		substrate = DefaultSubstrateCarbonKgPerCM2
	}
	if substrate < 0 {
		return Result{}, fmt.Errorf("packaging: negative substrate coefficient %g", substrate)
	}
	assemblyE := in.AssemblyEnergyKWhPerCM2
	if assemblyE == 0 {
		assemblyE = DefaultAssemblyEnergyKWhPerCM2
	}
	if assemblyE < 0 {
		return Result{}, fmt.Errorf("packaging: negative assembly coefficient %g", assemblyE)
	}

	ci, err := grid.SiteIntensity(in.AssemblyMix, grid.RegionTaiwan, 0)
	if err != nil {
		return Result{}, err
	}

	pkgArea := totalDie.Scale(factor)
	res := Result{
		SubstrateCarbon: units.KgPerCM2(substrate).Times(pkgArea),
		AssemblyCarbon:  units.KWhPerCM2(assemblyE).Times(pkgArea).Carbon(ci),
		PackageArea:     pkgArea,
	}

	if style == Interposer25D {
		node := in.InterposerNode
		if node.Name == "" {
			node, err = technode.ByName("28nm")
			if err != nil {
				return Result{}, err
			}
		}
		if err := node.Validate(); err != nil {
			return Result{}, err
		}
		interArea := totalDie.Scale(InterposerAreaFactor)
		interEnergy := node.EPA.Times(interArea)
		res.InterposerCarbon = interEnergy.Carbon(ci) +
			node.GPA.Times(interArea) + node.MPANew.Times(interArea) +
			units.KWh(DefaultBondingEnergyKWhPerDie*float64(len(dies))).Carbon(ci)
	}
	return res, nil
}
