// Package isoperf defines the iso-performance FPGA:ASIC testcases of
// the paper's Table 2, taken from Tan's system-level tradeoff study
// [12]: for each application domain, the silicon-area and power ratios
// an FPGA needs to match ASIC performance.
//
//	Domain    Area (norm. to ASIC)   Power (norm. to ASIC)
//	DNN       4                      3
//	ImgProc   7.42                   1.25
//	Crypto    1                      1
//
// Each domain carries a calibrated ASIC reference testcase (10 nm die
// area, peak power, duty cycle, design staffing) chosen so the paper's
// §4.2 crossover observations are reproduced. Set() builds the
// domain's platforms: the FPGA/ASIC pair the experiments sweep as
// members 0 and 1, then the calibrated GPU and CPU iso-performance
// platforms for the four-way comparison.
package isoperf

import (
	"fmt"
	"sort"
	"sync"

	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/technode"
	"greenfpga/internal/units"
	"greenfpga/internal/yield"
)

// Domain is one iso-performance testcase. Beyond the paper's Table 2
// FPGA:ASIC ratios it carries GPU and CPU iso-performance ratios for
// the TOCS-style four-way comparison; a zero GPU or CPU ratio pair
// drops that platform from the domain's Set.
type Domain struct {
	// Name is the domain label (DNN, ImgProc, Crypto).
	Name string
	// AreaRatio is Table 2's FPGA:ASIC silicon ratio.
	AreaRatio float64
	// PowerRatio is Table 2's FPGA:ASIC power ratio.
	PowerRatio float64
	// ASICArea is the reference ASIC die area at 10 nm.
	ASICArea units.Area
	// ASICPeakPower is the reference ASIC TDP.
	ASICPeakPower units.Power
	// DutyCycle is the deployment utilization for both platforms.
	DutyCycle float64
	// DesignEngineers staffs the design project of either platform
	// (Eq. 4); the FPGA fabric's regularity makes its design effort
	// comparable to the domain ASIC's despite the larger die.
	DesignEngineers float64
	// GPUAreaRatio and GPUPowerRatio place a software-reusable GPU at
	// iso-performance with the domain ASIC (both zero: no GPU in the
	// domain set). GPUs carry less silicon than the FPGA fabric but
	// burn far more power per delivered operation.
	GPUAreaRatio  float64
	GPUPowerRatio float64
	// CPUAreaRatio and CPUPowerRatio place a general-purpose CPU at
	// iso-performance with the domain ASIC (both zero: no CPU in the
	// domain set).
	CPUAreaRatio  float64
	CPUPowerRatio float64
}

// The calibrated domain testcases. Areas, powers, duty cycles and
// staffing land the model on the paper's reported crossovers:
// DNN A2F at 6 applications and F2A at ~1.6 years; ImgProc A2F at 12
// applications and F2A at ~300 K units with ASICs always winning the
// lifetime sweep; Crypto favouring FPGAs from the second application.
// The GPU and CPU ratios extend each domain toward the follow-up
// four-way comparison: GPUs sit between the ASIC and the FPGA on
// silicon but pay the worst accelerator power at iso-performance
// (the paper's §1 rationale for preferring FPGAs over GPUs), and CPUs
// pay both a large general-purpose die and an order-of-magnitude
// power penalty on these accelerator workloads.
var domains = []Domain{
	{
		Name:            "DNN",
		AreaRatio:       4,
		PowerRatio:      3,
		ASICArea:        units.MM2(150),
		ASICPeakPower:   units.Watts(1.05),
		DutyCycle:       0.10,
		DesignEngineers: 369,
		GPUAreaRatio:    2.5,
		GPUPowerRatio:   5,
		CPUAreaRatio:    6,
		CPUPowerRatio:   15,
	},
	{
		Name:            "ImgProc",
		AreaRatio:       7.42,
		PowerRatio:      1.25,
		ASICArea:        units.MM2(81),
		ASICPeakPower:   units.Watts(2.4),
		DutyCycle:       0.30,
		DesignEngineers: 380,
		GPUAreaRatio:    3,
		GPUPowerRatio:   4,
		CPUAreaRatio:    5,
		CPUPowerRatio:   10,
	},
	{
		Name:            "Crypto",
		AreaRatio:       1,
		PowerRatio:      1,
		ASICArea:        units.MM2(150),
		ASICPeakPower:   units.Watts(1.0),
		DutyCycle:       0.20,
		DesignEngineers: 369,
		GPUAreaRatio:    2,
		GPUPowerRatio:   8,
		CPUAreaRatio:    3,
		CPUPowerRatio:   12,
	},
}

// Domains lists the testcases in Table 2 order (DNN, ImgProc, Crypto).
func Domains() []Domain {
	out := make([]Domain, len(domains))
	copy(out, domains)
	return out
}

// ByName looks up a domain case-sensitively.
func ByName(name string) (Domain, error) {
	for _, d := range domains {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, len(domains))
	for i, d := range domains {
		names[i] = d.Name
	}
	sort.Strings(names)
	return Domain{}, fmt.Errorf("isoperf: unknown domain %q (known: %v)", name, names)
}

// Validate checks the domain parameters.
func (d Domain) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("isoperf: unnamed domain")
	case d.AreaRatio < 1:
		return fmt.Errorf("isoperf: domain %s: area ratio %g must be >= 1", d.Name, d.AreaRatio)
	case d.PowerRatio <= 0:
		return fmt.Errorf("isoperf: domain %s: power ratio %g must be positive", d.Name, d.PowerRatio)
	case d.ASICArea.MM2() <= 0:
		return fmt.Errorf("isoperf: domain %s: ASIC area must be positive", d.Name)
	case d.ASICPeakPower.Watts() <= 0:
		return fmt.Errorf("isoperf: domain %s: ASIC power must be positive", d.Name)
	case d.DutyCycle <= 0 || d.DutyCycle > 1:
		return fmt.Errorf("isoperf: domain %s: duty cycle %g outside (0,1]", d.Name, d.DutyCycle)
	case d.DesignEngineers <= 0:
		return fmt.Errorf("isoperf: domain %s: design staffing must be positive", d.Name)
	}
	for _, ext := range []struct {
		kind        string
		area, power float64
	}{{"GPU", d.GPUAreaRatio, d.GPUPowerRatio}, {"CPU", d.CPUAreaRatio, d.CPUPowerRatio}} {
		if ext.area < 0 || ext.power < 0 {
			return fmt.Errorf("isoperf: domain %s: negative %s ratio", d.Name, ext.kind)
		}
		if (ext.area > 0) != (ext.power > 0) {
			return fmt.Errorf("isoperf: domain %s: %s area and power ratios must be set together",
				d.Name, ext.kind)
		}
	}
	return nil
}

// calibrated reports whether d is one of the built-in testcases.
func (d Domain) calibrated() bool {
	for _, c := range domains {
		if d == c {
			return true
		}
	}
	return false
}

// setCache memoizes Set for the calibrated domains only. A Domain is
// a small comparable struct, so the set it maps to is a pure function
// of its fields; experiments re-resolve the same three calibrated
// domains for every artifact, and without the cache each resolution
// re-runs the node lookup and yield model. Modified domains (a caller
// varying a field per evaluation, say) bypass the cache entirely —
// every key would be unique, so caching them would only buy mutex
// contention and garbage.
var setCache struct {
	sync.Mutex
	m map[Domain]core.Set
}

// Set builds the domain's full iso-performance platform set, ordered
// FPGA, ASIC, then GPU and CPU where the domain calibrates them. The
// FPGA side carries AreaRatio times the ASIC silicon and PowerRatio
// times its power; both sides share the ASIC's die yield so the
// embodied ratio equals Table 2's silicon ratio exactly (the paper's
// reading: equivalent FPGA capacity comes from devices of comparable
// yield, not one giant low-yield die). Results for the calibrated
// domains are memoized, so repeated resolution across experiment
// artifacts is a map lookup.
func (d Domain) Set() (core.Set, error) {
	if !d.calibrated() {
		return d.buildSet()
	}
	setCache.Lock()
	set, ok := setCache.m[d]
	setCache.Unlock()
	if ok {
		return append(core.Set(nil), set...), nil
	}
	set, err := d.buildSet()
	if err != nil {
		return nil, err
	}
	setCache.Lock()
	if setCache.m == nil {
		setCache.m = make(map[Domain]core.Set)
	}
	setCache.m[d] = set
	setCache.Unlock()
	return append(core.Set(nil), set...), nil
}

// compiledSets memoizes CompiledSet by canonical domain name; the
// calibrated domains are immutable, so it never invalidates.
var compiledSets sync.Map // domain name -> core.CompiledSet

// CompiledSet resolves a calibrated domain by name and compiles its
// full Set (FPGA, ASIC, then GPU and CPU), once per process: every
// experiment, endpoint and sweep cell that names the domain shares one
// compilation per platform. Callers must not modify the result.
func CompiledSet(name string) (core.CompiledSet, error) {
	d, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if v, ok := compiledSets.Load(d.Name); ok {
		return v.(core.CompiledSet), nil
	}
	set, err := d.Set()
	if err != nil {
		return nil, err
	}
	cs, err := set.Compile()
	if err != nil {
		return nil, err
	}
	compiledSets.Store(d.Name, cs)
	return cs, nil
}

// buildSet constructs the platform set without consulting the cache.
func (d Domain) buildSet() (core.Set, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	node, err := technode.ByName("10nm")
	if err != nil {
		return nil, err
	}
	asicYield, err := (yield.Calculator{
		Model:          yield.Murphy,
		DefectDensity:  node.DefectDensity,
		CriticalLayers: node.CriticalLayers,
	}).DieYield(d.ASICArea)
	if err != nil {
		return nil, err
	}

	asicSpec := device.Spec{
		Name:      d.Name + "-ASIC",
		Kind:      device.ASIC,
		Node:      node,
		DieArea:   d.ASICArea,
		PeakPower: d.ASICPeakPower,
		BasedOn:   "iso-performance reference [12]",
	}
	fpgaArea := d.ASICArea.Scale(d.AreaRatio)
	fpgaSpec := device.Spec{
		Name:          d.Name + "-FPGA",
		Kind:          device.FPGA,
		Node:          node,
		DieArea:       fpgaArea,
		PeakPower:     d.ASICPeakPower.Scale(d.PowerRatio),
		CapacityGates: node.GatesForArea(fpgaArea) / d.AreaRatio,
		BasedOn:       "iso-performance equivalent [12]",
	}

	common := core.Platform{
		YieldOverride:   asicYield,
		DutyCycle:       d.DutyCycle,
		DesignEngineers: d.DesignEngineers,
		DesignDuration:  units.YearsOf(2),
	}
	asic := common
	asic.Spec = asicSpec
	fpga := common
	fpga.Spec = fpgaSpec
	set := core.Set{fpga, asic}

	for _, ext := range []struct {
		kind        device.Kind
		suffix      string
		area, power float64
	}{
		{device.GPU, "-GPU", d.GPUAreaRatio, d.GPUPowerRatio},
		{device.CPU, "-CPU", d.CPUAreaRatio, d.CPUPowerRatio},
	} {
		if ext.area == 0 {
			continue
		}
		p := common
		p.Spec = device.Spec{
			Name:      d.Name + ext.suffix,
			Kind:      ext.kind,
			Node:      node,
			DieArea:   d.ASICArea.Scale(ext.area),
			PeakPower: d.ASICPeakPower.Scale(ext.power),
			BasedOn:   "iso-performance extension (TOCS follow-up)",
		}
		set = append(set, p)
	}
	return set, nil
}

// ReferenceVolume is the N_vol = 1e6 units used throughout §4.2.
const ReferenceVolume = 1e6

// ReferenceLifetime is the T_i = 2 years used throughout §4.2.
func ReferenceLifetime() units.Years { return units.YearsOf(2) }

// ReferenceNumApps is the N_app = 5 used throughout §4.2.
const ReferenceNumApps = 5
