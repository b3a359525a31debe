package core

import (
	"fmt"

	"greenfpga/internal/device"
	"greenfpga/internal/units"
)

// Application is one workload in a scenario.
type Application struct {
	// Name labels the application in reports.
	Name string
	// Lifetime is T_i: how long the application stays deployed.
	Lifetime units.Years
	// Volume is N_vol: how many deployment units (chips for ASICs,
	// device groups for FPGAs) serve the application. It is a float so
	// crossover solvers can bisect it continuously.
	Volume float64
	// SizeGates is the application's size in equivalent logic gates,
	// driving N_FPGA = ceil(size/capacity). Zero means the application
	// fits a single device.
	SizeGates float64
	// UtilizationScale scales the platform's per-device operational
	// power for this application, modelling designs that exercise only
	// part of the device (an FPGA app occupying a fraction of the
	// fabric, with the rest clock-gated). Zero means 1 (full power);
	// values must lie in (0, 1].
	UtilizationScale float64
}

// Validate checks the application.
func (a Application) Validate() error { return a.validate() }

// validate is Validate in place.
func (a *Application) validate() error {
	switch {
	case a.Lifetime.Years() <= 0:
		return fmt.Errorf("core: application %q needs a positive lifetime, got %v", a.Name, a.Lifetime)
	case a.Volume <= 0:
		return fmt.Errorf("core: application %q needs a positive volume, got %g", a.Name, a.Volume)
	case a.SizeGates < 0:
		return fmt.Errorf("core: application %q has negative size", a.Name)
	case a.UtilizationScale < 0 || a.UtilizationScale > 1:
		return fmt.Errorf("core: application %q utilization scale %g outside (0,1]",
			a.Name, a.UtilizationScale)
	}
	return nil
}

// utilization resolves the power-utilization factor.
func (a Application) utilization() float64 {
	if a.UtilizationScale == 0 {
		return 1
	}
	return a.UtilizationScale
}

// Scenario is a sequence of applications served back to back, the
// setting of every experiment in the paper's §4.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Apps run sequentially; an FPGA fleet is reconfigured between
	// them, while ASICs are remanufactured per application.
	Apps []Application
	// StrictEq2 applies the paper's Eq. 2 literally, scaling the
	// application-development CFP by each application's lifetime.
	// The default treats engineering and configuration as one-time
	// costs, matching the paper's prose; see DESIGN.md.
	StrictEq2 bool
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if len(s.Apps) == 0 {
		return fmt.Errorf("core: scenario %q has no applications", s.Name)
	}
	for i := range s.Apps {
		if err := s.Apps[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalYears is the wall-clock span of the sequential applications.
func (s Scenario) TotalYears() units.Years {
	var t float64
	for _, a := range s.Apps {
		t += a.Lifetime.Years()
	}
	return units.YearsOf(t)
}

// Uniform builds a scenario of n identical applications, the shape of
// experiments A-C (Figs. 4-8). Non-positive n yields an empty (invalid)
// scenario that Evaluate rejects.
func Uniform(name string, n int, lifetime units.Years, volume float64, sizeGates float64) Scenario {
	if n < 0 {
		n = 0
	}
	apps := make([]Application, n)
	for i := range apps {
		apps[i] = Application{
			Name:      fmt.Sprintf("%s-app%d", name, i+1),
			Lifetime:  lifetime,
			Volume:    volume,
			SizeGates: sizeGates,
		}
	}
	return Scenario{Name: name, Apps: apps}
}

// Breakdown splits a platform's total CFP into the component sources
// of Figs. 7, 10 and 11.
type Breakdown struct {
	// Design is C_des (embodied).
	Design units.Mass
	// Manufacturing is N x C_mfg (embodied).
	Manufacturing units.Mass
	// Packaging is N x C_package (embodied).
	Packaging units.Mass
	// EOL is N x C_EOL (embodied; may be a negative credit).
	EOL units.Mass
	// Operation is the field-use CFP (deployment).
	Operation units.Mass
	// AppDevelopment is the per-application engineering CFP (deployment).
	AppDevelopment units.Mass
	// Configuration is the per-device (re)configuration CFP (deployment).
	Configuration units.Mass
}

// Embodied is C_emb: design + manufacturing + packaging + EOL.
func (b Breakdown) Embodied() units.Mass {
	return b.Design + b.Manufacturing + b.Packaging + b.EOL
}

// Deployment is the operation + application-development CFP.
func (b Breakdown) Deployment() units.Mass {
	return b.Operation + b.AppDevelopment + b.Configuration
}

// Total is the platform's total CFP.
func (b Breakdown) Total() units.Mass {
	return b.Embodied() + b.Deployment()
}

// Add accumulates another breakdown.
func (b Breakdown) Add(o Breakdown) Breakdown {
	b.add(&o)
	return b
}

// add is Add in place: it adds o into b field by field.
func (b *Breakdown) add(o *Breakdown) {
	b.Design += o.Design
	b.Manufacturing += o.Manufacturing
	b.Packaging += o.Packaging
	b.EOL += o.EOL
	b.Operation += o.Operation
	b.AppDevelopment += o.AppDevelopment
	b.Configuration += o.Configuration
}

// Scale multiplies every component by k.
func (b Breakdown) Scale(k float64) Breakdown {
	return Breakdown{
		Design:         b.Design.Scale(k),
		Manufacturing:  b.Manufacturing.Scale(k),
		Packaging:      b.Packaging.Scale(k),
		EOL:            b.EOL.Scale(k),
		Operation:      b.Operation.Scale(k),
		AppDevelopment: b.AppDevelopment.Scale(k),
		Configuration:  b.Configuration.Scale(k),
	}
}

// AppAssessment is the contribution of one application.
type AppAssessment struct {
	// Name is the application's name.
	Name string
	// DevicesPerUnit is N_FPGA for this application (1 for ASICs).
	DevicesPerUnit int
	// Breakdown is the application's CFP contribution. For FPGAs the
	// shared embodied carbon is not attributed to individual
	// applications; it appears only in the scenario breakdown.
	Breakdown Breakdown
}

// Assessment is the result of evaluating a platform over a scenario.
type Assessment struct {
	// Platform is the device name.
	Platform string
	// Kind is ASIC or FPGA.
	Kind device.Kind
	// Breakdown is the total CFP split by source.
	Breakdown Breakdown
	// PerApp lists each application's contribution.
	PerApp []AppAssessment
	// DevicesManufactured counts every device built over the scenario,
	// including FPGA fleet regenerations.
	DevicesManufactured float64
	// FleetSize is the concurrent device count (FPGA fleets); for
	// ASICs it is the largest single-application volume.
	FleetSize float64
	// HardwareGenerations counts FPGA fleet rebuilds forced by the
	// chip-lifetime cap (1 when uncapped).
	HardwareGenerations int
}

// Total is the scenario total CFP.
func (a Assessment) Total() units.Mass { return a.Breakdown.Total() }

// Evaluate computes the total CFP of running the scenario on the
// platform, applying Eq. 1 for ASICs and Eq. 2 for FPGAs. It compiles
// the platform and evaluates once; callers evaluating many scenarios
// against the same platform should Compile once themselves and reuse
// the result.
func Evaluate(p Platform, s Scenario) (Assessment, error) {
	var c Compiled
	if err := compile(p, &c); err != nil {
		return Assessment{}, err
	}
	return c.Evaluate(s)
}
