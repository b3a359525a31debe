// Package greenfpga estimates the total carbon footprint (CFP) of
// FPGA- and ASIC-based computing across the device lifecycle — design,
// manufacturing, packaging, deployment and end-of-life — reproducing
// "GreenFPGA: Evaluating FPGAs as Environmentally Sustainable Computing
// Solutions" (Choppali Sudarshan, Arora, Chhabria; DAC 2024).
//
// The central question the tool answers: when does FPGA
// reconfigurability — one fleet amortized across many applications —
// beat manufacturing a new ASIC per application? The paper's equations:
//
//	C_ASIC = sum_i (C_emb,i + T_i x C_deploy,i)   // new chips per app
//	C_FPGA = C_emb + sum_i T_i x C_deploy,i       // embodied paid once
//
// Quick start:
//
//	dnn, _ := greenfpga.DomainByName("DNN")       // Table 2 testcase
//	set, _ := dnn.Set()                           // FPGA, ASIC, then GPU, CPU
//	pair, _ := greenfpga.CompileSet(set[:2])      // the paper's FPGA/ASIC pair
//	cmp, _ := pair.Compare(greenfpga.Uniform("apps", 6, greenfpga.Years(2), 1e6, 0))
//	fmt.Println(cmp.Ratio(0, 1))                  // FPGA:ASIC; < 1: FPGA wins
//
// This root package is a facade over the internal model packages; it
// re-exports everything a downstream user needs: the scenario engine
// (Platform, Scenario, Evaluate), the iso-performance testcases of the
// paper's Table 2, the industry device catalog of Table 3, quantity
// constructors, and the experiment registry that regenerates every
// table and figure in the paper.
package greenfpga

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"greenfpga/internal/config"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/dse"
	"greenfpga/internal/experiments"
	"greenfpga/internal/grid"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/montecarlo"
	"greenfpga/internal/planner"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
	"greenfpga/internal/workload"
)

// DeviceKind distinguishes fixed-function from reconfigurable silicon.
type DeviceKind = device.Kind

// Device kinds. Each kind carries a ReusePolicy (see
// DeviceKind.Policy) that selects its accounting equation.
const (
	// ASIC devices serve one application and are remanufactured for
	// each new one.
	ASIC = device.ASIC
	// FPGA devices are reconfigured across applications.
	FPGA = device.FPGA
	// GPU devices are reprogrammed in software across applications.
	GPU = device.GPU
	// CPU devices are general-purpose reusable hosts.
	CPU = device.CPU
)

// ReusePolicy states how a device kind amortizes embodied carbon
// (Eq. 1 vs Eq. 2), whether it gangs devices by gate capacity, and
// its default application-development class.
type ReusePolicy = device.ReusePolicy

// Scenario engine types.
type (
	// Platform bundles a device with every lifecycle-model input.
	Platform = core.Platform
	// Scenario is a sequence of applications served back to back.
	Scenario = core.Scenario
	// Application is one workload (lifetime, volume, size).
	Application = core.Application
	// Assessment is a platform's evaluated CFP with its breakdown.
	Assessment = core.Assessment
	// Breakdown splits CFP into design/manufacturing/packaging/EOL/
	// operation/app-development components.
	Breakdown = core.Breakdown
	// PlatformSet is an ordered list of platforms compared on one
	// shared scenario; the paper's comparison is {FPGA, ASIC}.
	PlatformSet = core.Set
	// CompiledPlatformSet is a set compiled for dense sweeps.
	CompiledPlatformSet = core.CompiledSet
	// SetComparison is a set evaluated on one scenario: N assessments,
	// pairwise ratios, and the minimum-CFP winner.
	SetComparison = core.SetComparison
	// CompiledPlatform is a platform with its platform-constant
	// quantities cached; evaluating it skips the per-call model
	// re-derivation of Evaluate.
	CompiledPlatform = core.Compiled
	// Schedule is a time-phased deployment plan: applications
	// arriving, retiring and overlapping on one wall-clock timeline —
	// the generalization of Scenario's back-to-back sequence.
	Schedule = core.Schedule
	// Deployment is one scheduled application residency.
	Deployment = core.Deployment
	// ScheduleAssessment is an assessment plus timeline quantities
	// (span, peak concurrency, peak device demand).
	ScheduleAssessment = core.ScheduleAssessment
	// ScheduleComparison is a compiled set evaluated on one schedule.
	ScheduleComparison = core.ScheduleComparison
	// FleetSizing selects shared vs dedicated provisioning of a
	// reusable fleet's overlapping residents.
	FleetSizing = core.FleetSizing
	// DeviceSpec describes an ASIC or FPGA device.
	DeviceSpec = device.Spec
	// Domain is one Table 2 iso-performance testcase.
	Domain = isoperf.Domain
	// TechNode holds per-node manufacturing coefficients.
	TechNode = technode.Node
	// GridMix is a blend of energy sources.
	GridMix = grid.Mix
	// ScenarioConfig is the JSON scenario document of the CLI.
	ScenarioConfig = config.Scenario
	// ExperimentOutput is one regenerated paper table or figure.
	ExperimentOutput = experiments.Output
	// MCConfig drives a Monte-Carlo uncertainty study.
	MCConfig = montecarlo.Config
	// MCParam is one uncertain input parameter.
	MCParam = montecarlo.Param
	// MCResult summarizes a study (percentiles, tornado ranking).
	MCResult = montecarlo.Result
	// UniformDist is a flat distribution over a Table 1 range.
	UniformDist = montecarlo.Uniform
	// TriangularDist is a peaked distribution over a range.
	TriangularDist = montecarlo.Triangular
	// FixedDist pins a parameter.
	FixedDist = montecarlo.Fixed
	// Kernel is a parameterizable accelerator workload.
	Kernel = workload.Kernel
	// KernelDemand is a kernel's hardware requirement at a target
	// throughput.
	KernelDemand = workload.Demand
	// DSEInputs drives the carbon-aware design-space explorer.
	DSEInputs = dse.Inputs
	// DSEResult is a ranked exploration outcome.
	DSEResult = dse.Result
	// DSECandidate is one explored design point.
	DSECandidate = dse.Candidate
	// PlannerInputs drives the portfolio platform planner.
	PlannerInputs = planner.Inputs
	// Plan is a portfolio platform assignment.
	Plan = planner.Plan
)

// Quantity types (see the units documentation for conversions).
type (
	// Mass is CO2-equivalent mass in kilograms.
	Mass = units.Mass
	// Energy is electrical energy in kilowatt-hours.
	Energy = units.Energy
	// Power is electrical power in watts.
	Power = units.Power
	// Area is silicon area in square millimetres.
	Area = units.Area
	// YearSpan is calendar time in years.
	YearSpan = units.Years
	// CarbonIntensity is kg CO2e per kWh.
	CarbonIntensity = units.CarbonIntensity
)

// Quantity constructors.
var (
	// Kilograms, Tonnes and Kilotonnes build CO2e masses.
	Kilograms  = units.Kilograms
	Tonnes     = units.Tonnes
	Kilotonnes = units.Kilotonnes
	// Watts and Kilowatts build powers.
	Watts     = units.Watts
	Kilowatts = units.Kilowatts
	// KWh, MWh and GWh build energies.
	KWh = units.KWh
	MWh = units.MWh
	GWh = units.GWh
	// MM2 and CM2 build areas.
	MM2 = units.MM2
	CM2 = units.CM2
	// Years, Months and Hours build calendar spans.
	Years  = units.YearsOf
	Months = units.Months
	Hours  = units.Hours
	// GramsPerKWh and KgPerKWh build carbon intensities.
	GramsPerKWh = units.GramsPerKWh
	KgPerKWh    = units.KgPerKWh
)

// Evaluate computes the total CFP of running the scenario on the
// platform (Eq. 1 for ASICs, Eq. 2 for FPGAs).
func Evaluate(p Platform, s Scenario) (Assessment, error) { return core.Evaluate(p, s) }

// Compile validates the platform once and caches every
// platform-constant quantity of the lifecycle models. Use the result's
// Evaluate/EvaluateUniform for dense sweeps: per-call cost drops from
// re-running the fab, packaging, EOL, design and deployment models to
// a handful of multiplications.
func Compile(p Platform) (*CompiledPlatform, error) { return core.Compile(p) }

// CompileSet compiles every platform of a set for N-way comparison,
// sweep and crossover workloads.
func CompileSet(set PlatformSet) (CompiledPlatformSet, error) { return set.Compile() }

// CrossoverNumAppsBetween finds the smallest N_app in 1..maxN at which
// platform a's total drops below platform b's — the paper's A2F
// crossover (Fig. 4) when a is the FPGA and b the ASIC. found is false
// when no crossover occurs within maxN.
func CrossoverNumAppsBetween(a, b *CompiledPlatform, lifetime YearSpan, volume, sizeGates float64, maxN int) (n int, found bool, err error) {
	return core.CrossoverNumAppsBetween(a, b, lifetime, volume, sizeGates, maxN)
}

// CrossoverLifetimeBetween bisects the application lifetime on [lo, hi]
// for the point where the two platform totals meet — the paper's F2A
// lifetime (Fig. 5) for the FPGA/ASIC pair.
func CrossoverLifetimeBetween(a, b *CompiledPlatform, nApps int, volume, sizeGates float64, lo, hi YearSpan) (YearSpan, bool, error) {
	return core.CrossoverLifetimeBetween(a, b, nApps, volume, sizeGates, lo, hi)
}

// CrossoverVolumeBetween bisects the application volume on [lo, hi]
// for the point where the two platform totals meet — the paper's F2A
// volume (Fig. 6) for the FPGA/ASIC pair.
func CrossoverVolumeBetween(a, b *CompiledPlatform, nApps int, lifetime YearSpan, sizeGates float64, lo, hi float64) (float64, bool, error) {
	return core.CrossoverVolumeBetween(a, b, nApps, lifetime, sizeGates, lo, hi)
}

// Uniform builds a scenario of n identical applications.
func Uniform(name string, n int, lifetime YearSpan, volume, sizeGates float64) Scenario {
	return core.Uniform(name, n, lifetime, volume, sizeGates)
}

// Staggered builds a schedule of n identical applications arriving
// every interval years (0 means simultaneously), the timeline
// generalization of Uniform.
func Staggered(name string, n int, interval, lifetime YearSpan, volume, sizeGates float64) Schedule {
	return core.Staggered(name, n, interval, lifetime, volume, sizeGates)
}

// Sequential serializes a scenario onto the timeline back to back;
// evaluating the result reproduces Evaluate exactly.
func Sequential(s Scenario) Schedule { return core.Sequential(s) }

// Fleet-sizing policies for overlapping residents of a reusable
// fleet.
const (
	// SizeShared time-shares the fleet across residents (the paper's
	// Eq. 2 reading; the default).
	SizeShared = core.SizeShared
	// SizeDedicated gives every resident its own devices.
	SizeDedicated = core.SizeDedicated
)

// Domains lists the iso-performance testcases of Table 2 (DNN,
// ImgProc, Crypto).
func Domains() []Domain { return isoperf.Domains() }

// DomainByName looks up a Table 2 domain.
func DomainByName(name string) (Domain, error) { return isoperf.ByName(name) }

// IndustryDevices lists the Table 3 catalog.
func IndustryDevices() []DeviceSpec { return device.Catalog() }

// DeviceByName looks up a Table 3 catalog device.
func DeviceByName(name string) (DeviceSpec, error) { return device.ByName(name) }

// NodeByName looks up a technology node ("28nm".."3nm").
func NodeByName(name string) (TechNode, error) { return technode.ByName(name) }

// GridByRegion returns a preset regional energy mix.
func GridByRegion(region string) (GridMix, error) { return grid.ByRegion(grid.Region(region)) }

// Experiments lists the registered paper-reproduction experiments.
func Experiments() []string { return experiments.List() }

// RunExperiment regenerates one paper table or figure by ID.
func RunExperiment(id string) (*ExperimentOutput, error) { return experiments.Run(id) }

// RenderExperiment runs an experiment and writes it to w.
func RenderExperiment(id string, w io.Writer) error {
	out, err := experiments.Run(id)
	if err != nil {
		return err
	}
	return out.Render(w)
}

// RunMonteCarlo executes a Monte-Carlo uncertainty study. Draws are
// evaluated in parallel — the model callback must be safe for
// concurrent use — with results identical across worker counts.
func RunMonteCarlo(cfg MCConfig) (MCResult, error) { return montecarlo.Run(cfg) }

// The DomainRatioStudyConfig parameters in MCConfig.Params order, so
// draw[mcDuty] is the drawn duty cycle.
const (
	mcDuty = iota
	mcFrontEnd
	mcBackEnd
	mcStaff
	mcRecycled
	mcEOLDelta
	mcLifetime
)

// DomainRatioStudyConfig builds the Monte-Carlo configuration that
// propagates the paper's Table 1 parameter ranges through the CFP
// ratio of two platform kinds of a domain's iso-performance set: the
// study's output is kindA's total over kindB's per draw. The draws
// perturb the shared calibration — duty cycle, design staffing,
// recycled sourcing, EOL recycling and application lifetime —
// everything else is held at the domain's calibration; the
// reconfiguration-flow draws (t_fe/t_be) apply to FPGA-kind members,
// whose app-development is the paper's hardware flow, while GPU/CPU
// members keep their software-port profiles. The (FPGA, ASIC) instance
// is the paper's FPGA:ASIC study. The two set members are prepared
// (core.Prepare: every draw-invariant quantity evaluated) once per
// process for a calibrated domain, through isoperf.CompiledSet, and
// once per configuration otherwise. A draw validates the drawn duty
// cycle and staffing as d.Set() would, then evaluates each member
// through core.Prepared.EvaluateTotals at its drawn core.Knobs on the
// scenario's Sequential schedule written as one run of nApps copies
// (core.Deployment.Repeat) of the drawn lifetime, borrowed from a
// per-configuration scratch pool: the loop prices the copy once and
// adds it nApps times, so the members' totals are Evaluate's on the
// platforms d.Set() builds for the drawn calibration, bit for bit.
// Every worker checks ctx before its draw, so a cancelled study stops
// evaluating; the draws consumed before cancellation are identical to
// an uncancelled run's.
// Run it whole with RunMonteCarlo, or in draw ranges through
// montecarlo.RunRange/Finalize as api.Evaluator.RunMonteCarlo and
// /v1/mc jobs do — the draws are bit-identical either way.
func DomainRatioStudyConfig(ctx context.Context, d Domain, kindA, kindB DeviceKind, nApps, samples int, seed int64) MCConfig {
	clampHi := d.DutyCycle * 1.5
	if clampHi > 1 {
		clampHi = 1
	}
	kinds := [2]DeviceKind{kindA, kindB}
	members, setErr := studyMembers(d, kinds)
	if nApps < 1 && setErr == nil {
		// Every draw of an empty study fails as its scenario does.
		setErr = fmt.Errorf("greenfpga: %s side: %w", kinds[0], core.Scenario{Name: "mc"}.Validate())
	}
	// A draw's schedule is the scenario's Sequential schedule as one
	// run of nApps back-to-back copies, its lifetime drawn. Draws run
	// concurrently, so each borrows its own.
	scratch := sync.Pool{New: func() any {
		return &core.Schedule{Name: "mc", Deployments: []core.Deployment{{
			App:    core.Application{Name: "mc", Volume: isoperf.ReferenceVolume},
			Repeat: nApps,
		}}}
	}}
	return MCConfig{
		Samples: samples,
		Seed:    seed,
		Params: []MCParam{
			{Name: "duty_cycle", Dist: TriangularDist{Lo: d.DutyCycle * 0.5, Mode: d.DutyCycle, Hi: clampHi}},
			{Name: "t_fe_months", Dist: UniformDist{Lo: 1.5, Hi: 2.5}},
			{Name: "t_be_months", Dist: UniformDist{Lo: 0.5, Hi: 1.5}},
			{Name: "design_staff", Dist: TriangularDist{Lo: d.DesignEngineers * 0.7, Mode: d.DesignEngineers, Hi: d.DesignEngineers * 1.3}},
			{Name: "recycled_fraction", Dist: UniformDist{Lo: 0, Hi: 1}},
			{Name: "eol_delta", Dist: UniformDist{Lo: 0.05, Hi: 0.95}},
			{Name: "app_lifetime_years", Dist: UniformDist{Lo: 1, Hi: 3}},
		},
		Model: func(draw []float64) (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			dd := d
			dd.DutyCycle = draw[mcDuty]
			dd.DesignEngineers = draw[mcStaff]
			if err := dd.Validate(); err != nil {
				return 0, err
			}
			if setErr != nil {
				return 0, setErr
			}
			sch := scratch.Get().(*core.Schedule)
			defer scratch.Put(sch)
			sch.Deployments[0].App.Lifetime = units.YearsOf(draw[mcLifetime])
			var totals [2]float64
			for i, m := range members {
				k := m.Knobs()
				k.DutyCycle = dd.DutyCycle
				k.DesignEngineers = dd.DesignEngineers
				k.RecycledMaterialFraction = draw[mcRecycled]
				k.EOLRecycleFraction = draw[mcEOLDelta]
				if kinds[i] == FPGA {
					k.FrontEnd = units.Months(draw[mcFrontEnd])
					k.BackEnd = units.Months(draw[mcBackEnd])
				}
				a, err := m.EvaluateTotals(k, *sch)
				if err != nil {
					return 0, fmt.Errorf("greenfpga: %s side: %w", kinds[i], err)
				}
				totals[i] = a.Total().Kilograms()
			}
			if totals[1] != 0 {
				return totals[0] / totals[1], nil
			}
			return math.Inf(1), nil
		},
	}
}

// studyMembers returns the prepared set members of the two kinds. A
// calibrated domain's members come from isoperf.CompiledSet, prepared
// once per process (calibrated as Domain.Set's memo tests it: d equals
// the built-in domain of its name); any other domain's are built from
// d.Set() and prepared here.
func studyMembers(d Domain, kinds [2]DeviceKind) ([2]*core.Prepared, error) {
	var members [2]*core.Prepared
	if c, err := isoperf.ByName(d.Name); err == nil && c == d {
		cs, err := isoperf.CompiledSet(d.Name)
		if err != nil {
			return members, err
		}
		for i, kind := range kinds {
			m, err := cs.Member(kind)
			if err != nil {
				return members, fmt.Errorf("greenfpga: domain %s: %w", d.Name, err)
			}
			members[i] = m.Prepared()
		}
		return members, nil
	}
	set, err := d.Set()
	if err != nil {
		return members, err
	}
	for i, kind := range kinds {
		p, err := set.Member(kind)
		if err != nil {
			return members, fmt.Errorf("greenfpga: domain %s: %w", d.Name, err)
		}
		if members[i], err = core.Prepare(p); err != nil {
			return members, fmt.Errorf("greenfpga: %s side: %w", kind, err)
		}
	}
	return members, nil
}

// Kernels lists the built-in workload library.
func Kernels() []Kernel { return workload.Library() }

// KernelByName looks up a workload kernel.
func KernelByName(name string) (Kernel, error) { return workload.ByName(name) }

// AppFromKernel sizes a kernel for a throughput target and wraps it as
// a scenario application (SizeGates drives N_FPGA).
func AppFromKernel(k Kernel, target float64, lifetime YearSpan, volume float64) (Application, error) {
	return workload.Application(k, target, lifetime, volume)
}

// KernelRoadmap builds a multi-generation scenario with a growing
// throughput target.
func KernelRoadmap(k Kernel, initialTarget, growthFactor float64, generations int,
	lifetime YearSpan, volume float64) (Scenario, error) {
	return workload.Roadmap(k, initialTarget, growthFactor, generations, lifetime, volume)
}

// ExploreDesignSpace runs the carbon-aware design-space explorer.
func ExploreDesignSpace(in DSEInputs) (DSEResult, error) { return dse.Explore(in) }

// OptimizePortfolio assigns each application of a portfolio to the
// shared FPGA fleet or a dedicated ASIC, minimizing total CFP.
func OptimizePortfolio(in PlannerInputs) (Plan, error) { return planner.Optimize(in) }

// LoadScenarioConfig reads a JSON scenario document.
func LoadScenarioConfig(path string) (*ScenarioConfig, error) { return config.Load(path) }

// ExampleScenarioConfig returns a complete sample JSON document.
func ExampleScenarioConfig() *ScenarioConfig { return config.Example() }
