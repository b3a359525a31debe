// Package deploy implements the deployment carbon models of GreenFPGA
// (paper §3.3): field operation and application development.
//
// Operational CFP per device-year is
//
//	C_op = C_src,use x E_use,  E_use = P_peak x duty x PUE x 8760 h
//
// Application-development CFP follows Eq. 7: each application charges
// front-end (RTL/HLS + verification) and back-end (synthesis, place &
// route) engineering-compute time, and each deployed device charges a
// configuration (bitstream load) energy:
//
//	T_app-dev = N_app x (T_FE + T_BE) + N_vol x T_config
//
// For ASICs T_FE and T_BE are zero — the paper folds ASIC development
// into the design-phase model (Eq. 4) — and T_config is zero because
// there is no field configuration step.
package deploy

import (
	"fmt"

	"greenfpga/internal/device"
	"greenfpga/internal/grid"
	"greenfpga/internal/units"
)

// OperationProfile describes how one device is used in the field.
type OperationProfile struct {
	// PeakPower is the device's peak (TDP) power draw.
	PeakPower units.Power
	// DutyCycle is the average utilization as a fraction of peak (0..1).
	DutyCycle float64
	// PUE is the facility power-usage-effectiveness multiplier; zero
	// means 1 (no facility overhead).
	PUE float64
	// UseMix is the grid powering the deployment; nil means the world
	// average preset (C_src,use).
	UseMix grid.Mix
}

// Validate checks the profile.
func (p OperationProfile) Validate() error {
	switch {
	case p.PeakPower.Watts() < 0:
		return fmt.Errorf("deploy: negative peak power %v", p.PeakPower)
	case p.DutyCycle < 0 || p.DutyCycle > 1:
		return fmt.Errorf("deploy: duty cycle %g outside [0,1]", p.DutyCycle)
	case p.PUE < 0 || (p.PUE > 0 && p.PUE < 1):
		return fmt.Errorf("deploy: PUE %g must be >= 1", p.PUE)
	}
	return nil
}

// Intensity resolves the use-phase carbon intensity C_src,use.
func (p OperationProfile) Intensity() (units.CarbonIntensity, error) {
	return grid.SiteIntensity(p.UseMix, grid.RegionWorld, 0)
}

// AnnualEnergy is E_use for one device over one year.
func (p OperationProfile) AnnualEnergy() (units.Energy, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	pue := p.PUE
	if pue == 0 {
		pue = 1
	}
	return p.PeakPower.Scale(p.DutyCycle * pue).Over(units.YearsOf(1)), nil
}

// AnnualCarbon is C_op for one device over one year.
func (p OperationProfile) AnnualCarbon() (units.Mass, error) {
	ci, err := p.Intensity()
	if err != nil {
		return 0, err
	}
	return p.AnnualCarbonAt(ci)
}

// AnnualCarbonAt is AnnualCarbon on a grid of resolved intensity ci.
func (p OperationProfile) AnnualCarbonAt(ci units.CarbonIntensity) (units.Mass, error) {
	e, err := p.AnnualEnergy()
	if err != nil {
		return 0, err
	}
	return e.Carbon(ci), nil
}

// AppDev describes the application-development effort of Eq. 7.
type AppDev struct {
	// FrontEnd is T_app,FE: RTL/HLS development plus verification,
	// charged once per application (Table 1: 1.5-2.5 months).
	FrontEnd units.Years
	// BackEnd is T_app,BE: synthesis, place and route, charged once per
	// application targeting one FPGA architecture (Table 1: 0.5-1.5
	// months).
	BackEnd units.Years
	// ComputePower is the development cluster draw (CPU servers running
	// simulation and implementation tools) during FE/BE time.
	ComputePower units.Power
	// ConfigTime is T_app,config: the per-device configuration
	// (bitstream load) time in the field.
	ConfigTime units.Years
	// ConfigPower is the host power drawn while configuring one device.
	ConfigPower units.Power
	// Mix powers development and configuration; nil means the USA
	// preset.
	Mix grid.Mix
}

// DefaultFPGAAppDev is a mid-band Table 1 profile: two months of front
// end, one month of back end, a 5 kW tool cluster, and a one-minute
// 30 W bitstream load per device.
var DefaultFPGAAppDev = AppDev{
	FrontEnd:     units.Months(2),
	BackEnd:      units.Months(1),
	ComputePower: units.Kilowatts(5),
	ConfigTime:   units.Hours(1.0 / 60.0),
	ConfigPower:  units.Watts(30),
}

// ASICAppDev is the ASIC profile: FE/BE are zero per the paper (already
// accounted in Eq. 4), and there is no field configuration.
var ASICAppDev = AppDev{}

// GPUAppDev is the software-port profile of a reusable GPU platform:
// half a month of porting and tuning on a 2 kW development cluster,
// with no hardware back end and no per-device configuration energy.
var GPUAppDev = AppDev{
	FrontEnd:     units.Months(0.5),
	ComputePower: units.Kilowatts(2),
}

// CPUAppDev is the software-port profile of a general-purpose CPU
// deployment: a quarter month of porting on a 1 kW cluster —
// the lightest bring-up of the platform classes.
var CPUAppDev = AppDev{
	FrontEnd:     units.Months(0.25),
	ComputePower: units.Kilowatts(1),
}

// kindProfiles refines the default profile per device kind — data,
// like the reuse-policy table itself, so adding a platform class is a
// map entry here, not a new branch.
var kindProfiles = map[device.Kind]AppDev{
	device.ASIC: ASICAppDev,
	device.FPGA: DefaultFPGAAppDev,
	device.GPU:  GPUAppDev,
	device.CPU:  CPUAppDev,
}

// classProfiles maps each app-dev class of a device reuse policy to
// its fallback profile, for kinds without a refined entry above.
var classProfiles = map[device.AppDevClass]AppDev{
	device.AppDevHardware: DefaultFPGAAppDev,
	device.AppDevSoftware: GPUAppDev,
	device.AppDevNone:     ASICAppDev,
}

// DefaultAppDev resolves the default application-development profile
// for a device kind: the kind's own profile when one is tabled,
// otherwise its reuse policy's app-dev class default.
func DefaultAppDev(k device.Kind) AppDev {
	if p, ok := kindProfiles[k]; ok {
		return p
	}
	return classProfiles[k.Policy().AppDev]
}

// Validate checks the profile.
func (a AppDev) Validate() error {
	switch {
	case a.FrontEnd.Years() < 0 || a.BackEnd.Years() < 0 || a.ConfigTime.Years() < 0:
		return fmt.Errorf("deploy: negative app-dev time")
	case a.ComputePower.Watts() < 0 || a.ConfigPower.Watts() < 0:
		return fmt.Errorf("deploy: negative app-dev power")
	}
	return nil
}

// Intensity resolves the development-phase carbon intensity C_src.
func (a AppDev) Intensity() (units.CarbonIntensity, error) {
	return grid.SiteIntensity(a.Mix, grid.RegionUSA, 0)
}

// PerApplication is the one-time development carbon of a single
// application: (T_FE + T_BE) x ComputePower x C_src.
func (a AppDev) PerApplication() (units.Mass, error) {
	ci, err := a.Intensity()
	if err != nil {
		return 0, err
	}
	return a.PerApplicationAt(ci)
}

// PerApplicationAt is PerApplication on a grid of resolved intensity
// ci.
func (a AppDev) PerApplicationAt(ci units.CarbonIntensity) (units.Mass, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	span := units.YearsOf(a.FrontEnd.Years() + a.BackEnd.Years())
	if span == 0 || a.ComputePower == 0 {
		return 0, nil
	}
	return a.ComputePower.Over(span).Carbon(ci), nil
}

// PerConfiguration is the carbon of configuring one deployed device
// once: T_config x ConfigPower x C_src.
func (a AppDev) PerConfiguration() (units.Mass, error) {
	ci, err := a.Intensity()
	if err != nil {
		return 0, err
	}
	return a.PerConfigurationAt(ci)
}

// PerConfigurationAt is PerConfiguration on a grid of resolved
// intensity ci.
func (a AppDev) PerConfigurationAt(ci units.CarbonIntensity) (units.Mass, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if a.ConfigTime == 0 || a.ConfigPower == 0 {
		return 0, nil
	}
	return a.ConfigPower.Over(a.ConfigTime).Carbon(ci), nil
}
