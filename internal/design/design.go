// Package design implements the design-phase carbon model that is
// contribution (2) of the GreenFPGA paper (§3.2(1), Eq. 4):
//
//	C_des = C_emp x N_emp,des x (N_gates / N_gates,des) x T_proj
//	C_emp = (E_des / N_emp) x C_src,des
//
// C_emp is the carbon footprint per employee-year of a design house,
// derived from the total electrical energy E_des reported in industry
// sustainability reports divided by headcount, times the carbon
// intensity of the house's energy sources. The project's share is the
// engineers assigned (N_emp,des) over the project duration (T_proj),
// scaled by the chip's complexity relative to the house's average
// product (N_gates / N_gates,des).
//
// The legacy gates-only model of ECO-CHIP [5] is provided as
// LegacyGateModel for the paper's comparison showing that prior art
// "grossly underestimated" design CFP.
package design

import (
	"fmt"

	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// Org describes a design house, mirroring the sustainability-report
// inputs of Table 1 (E_des 2-7.3 GWh per site, 20K-160K employees
// company-wide, C_src,des 30-700 g/kWh).
type Org struct {
	// Name labels the profile in reports.
	Name string
	// AnnualEnergy is the electrical energy the organization uses per
	// year across design activities (E_des).
	AnnualEnergy units.Energy
	// Employees is the headcount that energy supports (N_emp).
	Employees int
	// Mix is the house's energy sourcing; nil means the USA preset.
	Mix grid.Mix
	// RenewableTarget optionally raises the renewable share of the mix.
	RenewableTarget float64
}

// DefaultOrg is a fabless design house drawing ~3 MWh per employee-year
// (workstations, EDA compute, HVAC) on a US grid — consistent with the
// Microchip/NVIDIA/AMD reports cited by the paper.
var DefaultOrg = Org{
	Name:         "fabless-default",
	AnnualEnergy: units.GWh(6),
	Employees:    2000,
}

// CarbonPerEmployeeYear computes C_emp.
func (o Org) CarbonPerEmployeeYear() (units.Mass, error) {
	if o.Employees <= 0 {
		return 0, fmt.Errorf("design: org %q has no employees", o.Name)
	}
	if o.AnnualEnergy <= 0 {
		return 0, fmt.Errorf("design: org %q has non-positive annual energy", o.Name)
	}
	ci, err := grid.SiteIntensity(o.Mix, grid.RegionUSA, o.RenewableTarget)
	if err != nil {
		return 0, err
	}
	perEmployee := o.AnnualEnergy.Scale(1 / float64(o.Employees))
	return perEmployee.Carbon(ci), nil
}

// Project describes one chip-design effort.
type Project struct {
	// Engineers is N_emp,des: average engineers on the project.
	Engineers float64
	// Duration is T_proj (Table 1: 1-3 years).
	Duration units.Years
	// Gates is the chip complexity N_gates in equivalent logic gates.
	Gates float64
	// ReferenceGates is N_gates,des, the house's average product
	// complexity; zero means Gates (ratio 1), i.e. the staffing level
	// already reflects this chip's complexity.
	ReferenceGates float64
}

// Validate checks the project description.
func (p Project) Validate() error {
	switch {
	case p.Engineers <= 0:
		return fmt.Errorf("design: project needs engineers, got %g", p.Engineers)
	case p.Duration.Years() <= 0:
		return fmt.Errorf("design: project duration must be positive, got %v", p.Duration)
	case p.Gates < 0:
		return fmt.Errorf("design: negative gate count %g", p.Gates)
	case p.ReferenceGates < 0:
		return fmt.Errorf("design: negative reference gate count %g", p.ReferenceGates)
	}
	return nil
}

// CFP evaluates Eq. 4 for a project at a design house: the house's
// C_emp, then the project's share of it.
func CFP(o Org, p Project) (units.Mass, error) {
	cEmp, err := o.CarbonPerEmployeeYear()
	if err != nil {
		return 0, err
	}
	return p.CFP(cEmp)
}

// CFP is the project's Eq. 4 footprint at a house whose carbon per
// employee-year is cEmp.
func (p Project) CFP(cEmp units.Mass) (units.Mass, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	ratio := 1.0
	if p.ReferenceGates > 0 {
		ratio = p.Gates / p.ReferenceGates
	}
	return cEmp.Scale(p.Engineers * ratio * p.Duration.Years()), nil
}

// LegacyGateModel is the simplified prior-art design model of [5] that
// charges a fixed carbon per logic gate, independent of engineering
// effort or energy sourcing. The paper's §4.3 observes it grossly
// underestimates design CFP; see the design-ablation experiment.
type LegacyGateModel struct {
	// CarbonPerMGate is the charge per million equivalent gates.
	// Zero means DefaultLegacyCarbonPerMGate.
	CarbonPerMGate units.Mass
}

// DefaultLegacyCarbonPerMGate reproduces the magnitude of [5]: about
// 37 g CO2e per million gates, an order of magnitude below what the
// energy-based model attributes to a staffed multi-year project.
var DefaultLegacyCarbonPerMGate = units.Grams(37e3)

// CFP evaluates the legacy model for a chip of the given complexity.
func (l LegacyGateModel) CFP(gates float64) (units.Mass, error) {
	if gates < 0 {
		return 0, fmt.Errorf("design: negative gate count %g", gates)
	}
	per := l.CarbonPerMGate
	if per == 0 {
		per = DefaultLegacyCarbonPerMGate
	}
	return per.Scale(gates / 1e6), nil
}
