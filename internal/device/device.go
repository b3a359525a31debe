// Package device describes the chips GreenFPGA evaluates — ASIC
// accelerators, FPGAs, and the GPU/CPU platform classes of the
// follow-up four-way comparison — with the capacity math behind
// N_FPGA in Eq. 3 (N_FPGA = ceil(appsize / FPGAcapacity), both in
// equivalent logic gates) and the industry testcase catalog of
// Table 3.
//
// Which total-CFP equation applies to a device is not hardwired per
// kind: every Kind carries a ReusePolicy that states whether embodied
// carbon is paid once and amortized across applications (Eq. 2) or
// re-paid per application (Eq. 1), whether deployments gang devices by
// gate capacity, and which application-development class the platform
// defaults to. The scenario engine consults the policy, so adding a
// platform class is a data change here, not new control flow there.
package device

import (
	"fmt"
	"math"
	"sort"

	"greenfpga/internal/technode"
	"greenfpga/internal/units"
)

// Kind distinguishes the platform classes.
type Kind string

// Device kinds.
const (
	// ASIC devices serve exactly one application and are remanufactured
	// for each new one (Eq. 1).
	ASIC Kind = "asic"
	// FPGA devices are reconfigured across applications and amortize
	// their embodied carbon (Eq. 2).
	FPGA Kind = "fpga"
	// GPU devices are reprogrammed in software across applications
	// (Eq. 2 accounting) but burn more power at iso-performance and
	// need no hardware-level application development.
	GPU Kind = "gpu"
	// CPU devices are general-purpose hosts: reusable like GPUs, with
	// the lightest per-application bring-up and the worst
	// iso-performance power.
	CPU Kind = "cpu"
)

// AppDevClass selects a platform's default application-development
// profile (Eq. 7). The deploy package maps each class to a concrete
// profile; platforms can still override per deployment.
type AppDevClass string

// Application-development classes.
const (
	// AppDevHardware is the FPGA flow: RTL/HLS front end, synthesis and
	// place-and-route back end, per-device bitstream configuration.
	AppDevHardware AppDevClass = "hardware"
	// AppDevSoftware is the GPU/CPU flow: a software port on a
	// development cluster, no per-device configuration energy.
	AppDevSoftware AppDevClass = "software"
	// AppDevNone folds application development into the design phase
	// (the paper's ASIC accounting: Eq. 7 with T_FE = T_BE = 0).
	AppDevNone AppDevClass = "none"
)

// ReusePolicy states how a platform class amortizes its lifecycle
// carbon — the property that used to be scattered as Kind == FPGA
// checks across the scenario engine.
type ReusePolicy struct {
	// Reusable selects the accounting equation: true means the
	// embodied carbon is paid once and reused across applications
	// (Eq. 2); false means it is re-paid per application (Eq. 1).
	Reusable bool
	// CapacityGanged means applications are sized in equivalent gates
	// and deployments gang ceil(appsize/CapacityGates) devices
	// (Eq. 3's N_FPGA). Specs of such kinds must declare a positive
	// CapacityGates; other kinds must leave it zero.
	CapacityGanged bool
	// AppDev is the default application-development class.
	AppDev AppDevClass
}

// Kinds lists the known platform classes in a stable order.
func Kinds() []Kind { return []Kind{ASIC, FPGA, GPU, CPU} }

// Policy returns the kind's reuse policy. Unknown kinds return the
// zero policy; Validate rejects them. It is a switch rather than a
// map lookup because every evaluation asks it once per application.
func (k Kind) Policy() ReusePolicy {
	switch k {
	case ASIC:
		return ReusePolicy{Reusable: false, CapacityGanged: false, AppDev: AppDevNone}
	case FPGA:
		return ReusePolicy{Reusable: true, CapacityGanged: true, AppDev: AppDevHardware}
	case GPU, CPU:
		return ReusePolicy{Reusable: true, CapacityGanged: false, AppDev: AppDevSoftware}
	}
	return ReusePolicy{}
}

// Validate checks that the kind is a known platform class: every
// known kind has a policy with a non-empty AppDev class.
func (k Kind) Validate() error {
	if k.Policy() == (ReusePolicy{}) {
		return fmt.Errorf("device: unknown kind %q (known: asic, fpga, gpu, cpu)", k)
	}
	return nil
}

// Spec describes one device.
type Spec struct {
	// Name identifies the device in reports.
	Name string
	// Kind is the platform class (asic, fpga, gpu, cpu).
	Kind Kind
	// Node is the manufacturing technology.
	Node technode.Node
	// DieArea is the silicon area.
	DieArea units.Area
	// PeakPower is the TDP used by the operational model.
	PeakPower units.Power
	// CapacityGates is the usable application capacity in equivalent
	// logic gates, required for capacity-ganged kinds (FPGAs). FPGA
	// fabric spends silicon on configurability, so capacity is well
	// below the die's raw gate count.
	CapacityGates float64
	// BasedOn records the public device the testcase approximates.
	BasedOn string
}

// Validate checks the spec. Capacity semantics follow the kind's reuse
// policy: capacity-ganged kinds need a positive CapacityGates, every
// other kind must leave it zero (their applications always fit one
// device per deployment unit).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("device: unnamed spec")
	}
	if err := s.Kind.Validate(); err != nil {
		return fmt.Errorf("device %s: %v", s.Name, err)
	}
	if err := s.Node.Validate(); err != nil {
		return fmt.Errorf("device %s: %v", s.Name, err)
	}
	if s.DieArea.MM2() <= 0 {
		return fmt.Errorf("device %s: die area must be positive, got %v", s.Name, s.DieArea)
	}
	if s.PeakPower.Watts() <= 0 {
		return fmt.Errorf("device %s: peak power must be positive, got %v", s.Name, s.PeakPower)
	}
	pol := s.Kind.Policy()
	if pol.CapacityGanged && s.CapacityGates <= 0 {
		return fmt.Errorf("device %s: %s needs a positive gate capacity", s.Name, s.Kind)
	}
	if !pol.CapacityGanged && s.CapacityGates != 0 {
		return fmt.Errorf("device %s: %s has no gate-capacity ganging", s.Name, s.Kind)
	}
	return nil
}

// SiliconGates is the raw equivalent-gate count of the die at its node,
// the N_gates input of the design model (Eq. 4).
func (s Spec) SiliconGates() float64 {
	return s.Node.GatesForArea(s.DieArea)
}

// Required computes the devices ganged per deployment unit for an
// application of the given size (Eq. 3's N_FPGA). Kinds without
// capacity ganging always require exactly one device (the paper's
// footnote for ASICs; GPUs and CPUs scale in software), as do
// applications of unspecified (zero) size.
func (s *Spec) Required(appGates float64) (int, error) {
	if appGates < 0 {
		return 0, fmt.Errorf("device %s: negative application size %g", s.Name, appGates)
	}
	if !s.Kind.Policy().CapacityGanged || appGates == 0 {
		return 1, nil
	}
	if s.CapacityGates <= 0 {
		return 0, fmt.Errorf("device %s: %s capacity not set", s.Name, s.Kind)
	}
	return int(math.Ceil(appGates / s.CapacityGates)), nil
}

// mustNode resolves a table node at init time.
func mustNode(name string) technode.Node {
	n, err := technode.ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Industry testcases of Table 3, extended with one GPU and one CPU
// reference for the four-way platform comparison. Areas, powers and
// nodes are the table's values (public datasheet figures for the
// extension entries); capacities are plausible equivalent-gate figures
// for the referenced device families.
var catalog = []Spec{
	{
		Name:      "IndustryASIC1",
		Kind:      ASIC,
		Node:      mustNode("12nm"),
		DieArea:   units.MM2(340),
		PeakPower: units.Watts(70),
		BasedOn:   "Moffett Antoum deep-sparse inference SoC",
	},
	{
		Name:      "IndustryASIC2",
		Kind:      ASIC,
		Node:      mustNode("7nm"),
		DieArea:   units.MM2(600),
		PeakPower: units.Watts(192),
		BasedOn:   "Google TPU v4",
	},
	{
		Name:          "IndustryFPGA1",
		Kind:          FPGA,
		Node:          mustNode("14nm"),
		DieArea:       units.MM2(380),
		PeakPower:     units.Watts(160),
		CapacityGates: 40e6,
		BasedOn:       "Intel Agilex 7 I-Series",
	},
	{
		Name:          "IndustryFPGA2",
		Kind:          FPGA,
		Node:          mustNode("10nm"),
		DieArea:       units.MM2(550),
		PeakPower:     units.Watts(220),
		CapacityGates: 30e6,
		BasedOn:       "Intel Stratix 10",
	},
	{
		Name:      "IndustryGPU1",
		Kind:      GPU,
		Node:      mustNode("7nm"),
		DieArea:   units.MM2(826),
		PeakPower: units.Watts(400),
		BasedOn:   "NVIDIA A100 (GA100)",
	},
	{
		Name:      "IndustryCPU1",
		Kind:      CPU,
		Node:      mustNode("10nm"),
		DieArea:   units.MM2(660),
		PeakPower: units.Watts(270),
		BasedOn:   "Intel Xeon Platinum 8380",
	},
}

// Catalog lists the industry testcases in Table 3 order (the GPU and
// CPU extension entries follow the paper's four).
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	return out
}

// ByName looks up a catalog device.
func ByName(name string) (Spec, error) {
	for _, s := range catalog {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.Name
	}
	sort.Strings(names)
	return Spec{}, fmt.Errorf("device: unknown device %q (known: %v)", name, names)
}
