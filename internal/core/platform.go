// Package core is the GreenFPGA scenario engine: it assembles the
// design, manufacturing, packaging, end-of-life and deployment models
// into the paper's total-CFP equations,
//
//	C_ASIC = sum_i (C_emb,i + T_i x C_deploy,i)        (Eq. 1)
//	C_FPGA = C_emb + sum_i T_i x C_deploy,i            (Eq. 2)
//	C_emb  = C_des + N_vol x N_FPGA x (C_mfg + C_pkg + C_EOL)  (Eq. 3)
//
// and provides the crossover solvers (A2F and F2A points) used by the
// paper's evaluation.
package core

import (
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/deploy"
	"greenfpga/internal/design"
	"greenfpga/internal/device"
	"greenfpga/internal/eol"
	"greenfpga/internal/fab"
	"greenfpga/internal/grid"
	"greenfpga/internal/packaging"
	"greenfpga/internal/units"
	"greenfpga/internal/yield"
)

// Defaults for platform knobs left at their zero values.
const (
	// DefaultDesignEngineers is N_emp,des when unset.
	DefaultDesignEngineers = 300
	// DefaultDesignYears is T_proj when unset (Table 1: 1-3 years).
	DefaultDesignYears = 2
)

// Platform bundles a device with every lifecycle-model input of the
// tool (Fig. 3): embodied knobs on the left, deployment knobs on the
// right.
type Platform struct {
	// Spec is the device being deployed.
	Spec device.Spec

	// FabMix powers the fab; nil means the Taiwan preset.
	FabMix grid.Mix
	// FabRenewableTarget optionally raises the fab's renewable share.
	FabRenewableTarget float64
	// RecycledMaterialFraction is rho in Eq. 5.
	RecycledMaterialFraction float64
	// Yield overrides the node-default Murphy calculator when set.
	Yield yield.Calculator
	// YieldOverride forces a fixed die yield in (0,1] when positive.
	// The iso-performance testcases use it so the FPGA:ASIC embodied
	// ratio equals the silicon ratio of Table 2 (the paper's reading:
	// equivalent FPGA capacity is reached with devices of comparable
	// yield, not one giant low-yield die).
	YieldOverride float64

	// PackagingStyle selects the package model; empty means monolithic.
	PackagingStyle packaging.Style
	// PackagingAreaFactor overrides the package/die area ratio when > 0.
	PackagingAreaFactor float64

	// EOL configures Eq. 6.
	EOL eol.Params

	// DesignOrg is the design house (zero Employees means the default
	// fabless profile).
	DesignOrg design.Org
	// DesignEngineers is N_emp,des; zero means DefaultDesignEngineers.
	DesignEngineers float64
	// DesignDuration is T_proj; zero means DefaultDesignYears.
	DesignDuration units.Years
	// DesignReferenceGates is N_gates,des; zero disables the gate-count
	// ratio (staffing already reflects this chip).
	DesignReferenceGates float64
	// UseLegacyDesignModel switches Eq. 4 for the gates-only prior-art
	// model of [5] (the design-ablation experiment).
	UseLegacyDesignModel bool
	// LegacyModel configures the prior-art model when enabled.
	LegacyModel design.LegacyGateModel

	// DutyCycle is the deployment utilization (0..1).
	DutyCycle float64
	// PUE is the facility overhead; zero means 1.
	PUE float64
	// UseMix is the deployment grid; nil means the world preset.
	UseMix grid.Mix
	// UseTrace is an hourly use-phase intensity trace. When set, the
	// operational CFP integrates hour-by-hour over each deployment's
	// residency window instead of multiplying by the scalar UseMix
	// intensity; when nil the legacy scalar path runs untouched.
	UseTrace carbon.Trace
	// UseIntegrator supplies pre-compiled trace constants (the cached
	// per-region integrators) so Compile does not rebuild the prefix
	// tables; when nil, Compile compiles UseTrace itself.
	UseIntegrator *carbon.Integrator
	// UseShift selects a temporal load-shifting policy over the trace:
	// "" runs uniformly at DutyCycle, carbon.ShiftDaily packs each
	// day's run-hours into that day's cleanest hours.
	UseShift string
	// AppDev overrides the application-development profile. Nil uses
	// the device kind's reuse-policy default (deploy.DefaultAppDev):
	// the FPGA hardware flow, the GPU/CPU software port, or the
	// paper's ASIC accounting (Eq. 7 with T_FE = T_BE = 0).
	AppDev *deploy.AppDev
	// ChipLifetime caps how long one hardware generation can serve;
	// zero means uncapped. Fig. 9 uses 15 years.
	ChipLifetime units.Years
}

// Validate checks the platform inputs that the model packages do not
// check themselves.
func (p Platform) Validate() error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if err := (Knobs{DutyCycle: p.DutyCycle, DesignEngineers: p.DesignEngineers}).validate(); err != nil {
		return err
	}
	if len(p.UseTrace) > 0 {
		if err := p.UseTrace.Validate(); err != nil {
			return err
		}
	}
	switch p.UseShift {
	case "", carbon.ShiftDaily:
	default:
		return fmt.Errorf("core: unknown shift policy %q (valid: %s)", p.UseShift, carbon.ShiftDaily)
	}
	if p.UseShift != "" && len(p.UseTrace) == 0 && p.UseIntegrator == nil {
		return fmt.Errorf("core: shift policy %q needs an hourly intensity trace", p.UseShift)
	}
	if p.YieldOverride < 0 || p.YieldOverride > 1 {
		return fmt.Errorf("core: yield override %g must be 0 (disabled) or in (0,1]", p.YieldOverride)
	}
	if p.ChipLifetime.Years() < 0 {
		return fmt.Errorf("core: negative chip lifetime %v", p.ChipLifetime)
	}
	if p.DesignDuration.Years() < 0 {
		return fmt.Errorf("core: negative design duration %v", p.DesignDuration)
	}
	return nil
}

// appDev resolves the application-development profile for the
// platform's device kind, following the kind's reuse policy.
func (p *Platform) appDev() deploy.AppDev {
	if p.AppDev != nil {
		return *p.AppDev
	}
	return deploy.DefaultAppDev(p.Spec.Kind)
}

// operation builds the per-device operation profile.
func (p *Platform) operation() deploy.OperationProfile {
	return deploy.OperationProfile{
		PeakPower: p.Spec.PeakPower,
		DutyCycle: p.DutyCycle,
		PUE:       p.PUE,
		UseMix:    p.UseMix,
	}
}

// AppDevProfile resolves the application-development profile for the
// platform's device kind (Eq. 7 inputs).
func (p Platform) AppDevProfile() deploy.AppDev {
	return p.appDev()
}

// DeviceCost is the per-device embodied footprint (manufacturing,
// packaging, end-of-life) — the bracketed term of Eq. 3.
type DeviceCost struct {
	// Manufacturing is the fab result.
	Manufacturing fab.Result
	// Packaging is the package result.
	Packaging packaging.Result
	// EOL is the end-of-life result.
	EOL eol.Result
}

// Total is C_mfg + C_package + C_EOL for one device.
func (d DeviceCost) Total() units.Mass {
	return d.Manufacturing.Total() + d.Packaging.Total() + d.EOL.Net()
}

// DeviceCost evaluates the per-device embodied models.
func (p Platform) DeviceCost() (DeviceCost, error) {
	var d preparedDevice
	if err := d.prepare(&p); err != nil {
		return DeviceCost{}, err
	}
	return d.cost(p.RecycledMaterialFraction, p.EOL.RecycleFraction)
}

// preparedDevice is DeviceCost's draw-invariant half: the prepared
// die, the yield override, the package, and the device mass and EOL
// parameters end of life is charged on.
type preparedDevice struct {
	die           fab.Die
	yieldOverride float64
	pkg           packaging.Result
	massKg        float64
	eol           eol.Params
}

func (d *preparedDevice) prepare(p *Platform) error {
	yc := p.Yield
	if p.YieldOverride > 0 {
		// A fixed yield is expressed as a zero-defect Poisson model and
		// explicit scaling in cost.
		yc = yield.Calculator{Model: yield.Poisson, DefectDensity: 0}
	}
	die, err := fab.Prepare(fab.Inputs{
		Node:            p.Spec.Node,
		DieArea:         p.Spec.DieArea,
		FabMix:          p.FabMix,
		RenewableTarget: p.FabRenewableTarget,
		Yield:           yc,
	})
	if err != nil {
		return err
	}
	pkg, err := packaging.SingleDieCFP(packaging.Inputs{
		Style:             p.PackagingStyle,
		PackageAreaFactor: p.PackagingAreaFactor,
		AssemblyMix:       p.FabMix,
	}, p.Spec.DieArea)
	if err != nil {
		return err
	}
	*d = preparedDevice{
		die:           die,
		yieldOverride: p.YieldOverride,
		pkg:           pkg,
		massKg:        eol.EstimateDeviceMassKg(pkg.PackageArea),
		eol:           p.EOL,
	}
	return nil
}

// cost is the per-device embodied cost at recycled-material fraction
// rho (Eq. 5) and EOL recycle fraction delta (Eq. 6).
func (d *preparedDevice) cost(rho, delta float64) (DeviceCost, error) {
	mfg, err := d.die.PerDie(rho)
	if err != nil {
		return DeviceCost{}, err
	}
	if d.yieldOverride > 0 {
		inv := 1 / d.yieldOverride
		mfg.EnergyCarbon = mfg.EnergyCarbon.Scale(inv)
		mfg.GasCarbon = mfg.GasCarbon.Scale(inv)
		mfg.MaterialCarbon = mfg.MaterialCarbon.Scale(inv)
		mfg.FabEnergy = mfg.FabEnergy.Scale(inv)
		mfg.Yield = d.yieldOverride
	}
	params := d.eol
	params.RecycleFraction = delta
	endOfLife, err := eol.CFP(d.massKg, params)
	if err != nil {
		return DeviceCost{}, err
	}
	return DeviceCost{Manufacturing: mfg, Packaging: d.pkg, EOL: endOfLife}, nil
}

// DesignCFP evaluates the design-phase model (Eq. 4), or the legacy
// gates-only model when the ablation switch is set.
func (p Platform) DesignCFP() (units.Mass, error) {
	var d preparedDesign
	if err := d.prepare(&p); err != nil {
		return 0, err
	}
	return d.cfp(p.DesignEngineers)
}

// preparedDesign is DesignCFP's draw-invariant half: the design
// house's carbon per employee-year and the project without its
// staffing, or the legacy model's staffing-free figure.
type preparedDesign struct {
	cEmp      units.Mass
	proj      design.Project
	legacy    bool
	legacyCFP units.Mass
}

func (d *preparedDesign) prepare(p *Platform) error {
	if p.UseLegacyDesignModel {
		cfp, err := p.LegacyModel.CFP(p.Spec.SiliconGates())
		*d = preparedDesign{legacy: true, legacyCFP: cfp}
		return err
	}
	org := p.DesignOrg
	if org.Employees == 0 {
		org = design.DefaultOrg
	}
	cEmp, err := org.CarbonPerEmployeeYear()
	if err != nil {
		return err
	}
	proj := design.Project{
		Duration:       p.DesignDuration,
		Gates:          p.Spec.SiliconGates(),
		ReferenceGates: p.DesignReferenceGates,
	}
	if proj.Duration == 0 {
		proj.Duration = units.YearsOf(DefaultDesignYears)
	}
	*d = preparedDesign{cEmp: cEmp, proj: proj}
	return nil
}

// cfp is the design-phase CFP with the given staffing N_emp,des.
func (d *preparedDesign) cfp(engineers float64) (units.Mass, error) {
	if d.legacy {
		return d.legacyCFP, nil
	}
	proj := d.proj
	proj.Engineers = engineers
	if proj.Engineers == 0 {
		proj.Engineers = DefaultDesignEngineers
	}
	return proj.CFP(d.cEmp)
}
