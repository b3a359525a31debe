package api

import (
	"bytes"
	"encoding/json"
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/config"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/isoperf"
)

// PlatformSpec names one platform the same way on every compute
// endpoint. Exactly one selector arm must be set:
//
//   - {domain, kind}: a member of a Table 2 iso-performance set
//     ("fpga", "asic", "gpu", "cpu"). The domain may be omitted when
//     the request carries a top-level domain (or defaults to DNN);
//     normalization fills it in. In JSON a bare string "fpga" is
//     shorthand for {"kind":"fpga"}, which is what keeps the legacy
//     kind-list bodies ({"platforms":["gpu","asic"]}) decoding.
//   - {device}: a Table 3 catalog device by name, deployed with the
//     catalog head-to-head defaults (duty cycle 0.3, PUE 1.2, 500
//     design engineers over 2 years — the same knobs `greenfpga
//     compare -fpga/-asic` uses).
//   - {config}: an inline platform document, the same JSON the
//     scenario config's fpga/asic slots take.
//
// The override fields apply on top of any arm; a request that only
// differs in an override resolves (and caches) as a distinct platform.
type PlatformSpec struct {
	// Domain names the iso-performance testcase of a kind selector.
	Domain string `json:"domain,omitempty"`
	// Kind selects a domain-set member ("fpga", "asic", "gpu", "cpu").
	Kind string `json:"kind,omitempty"`
	// Device names a Table 3 catalog entry.
	Device string `json:"device,omitempty"`
	// Config is an inline platform description.
	Config *PlatformConfig `json:"config,omitempty"`

	// DutyCycle overrides the deployment utilization (0 keeps the
	// platform's own).
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	// UseRegion sites the platform in a carbon-registry region: the
	// deployment grid takes the region's mix, and traced regions
	// additionally integrate their hourly intensity trace.
	UseRegion string `json:"use_region,omitempty"`
	// Trace supplies an inline hourly intensity profile instead of a
	// registry region's. Mutually exclusive with UseRegion.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Shift selects a temporal load-shifting policy over the hourly
	// trace ("daily" packs each day's run-hours into its cleanest
	// hours); requires a trace, inline or via a traced region.
	Shift string `json:"shift,omitempty"`
	// ChipLifetimeYears caps one hardware generation (0 keeps the
	// platform's own policy).
	ChipLifetimeYears float64 `json:"chip_lifetime_years,omitempty"`
}

// platformSpecPlain avoids UnmarshalJSON recursion.
type platformSpecPlain PlatformSpec

// UnmarshalJSON accepts the object form or the bare-string kind
// shorthand ("fpga" ≡ {"kind":"fpga"}), which is how the legacy
// platform kind lists keep decoding. Object bodies are decoded
// strictly — unknown fields are rejected even when the surrounding
// decoder is lenient — so a typoed override never silently vanishes.
func (p *PlatformSpec) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var kind string
		if err := json.Unmarshal(trimmed, &kind); err != nil {
			return err
		}
		*p = PlatformSpec{Kind: kind}
		return nil
	}
	if string(trimmed) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var plain platformSpecPlain
	if err := dec.Decode(&plain); err != nil {
		return err
	}
	*p = PlatformSpec(plain)
	return nil
}

// KindSpecs builds domain-member specs from kind names, the spec form
// of the legacy kind lists. The domain is left empty for request
// normalization to fill.
func KindSpecs(kinds ...string) []PlatformSpec {
	if len(kinds) == 0 {
		return nil
	}
	out := make([]PlatformSpec, len(kinds))
	for i, k := range kinds {
		out[i] = PlatformSpec{Kind: k}
	}
	return out
}

// PlatformSpecs builds specs from CLI tokens: a known platform kind
// (per the device package's authoritative kind list) becomes a
// domain-member spec, anything else a catalog device spec.
func PlatformSpecs(tokens []string) []PlatformSpec {
	out := make([]PlatformSpec, len(tokens))
	for i, tok := range tokens {
		if device.Kind(tok).Validate() == nil {
			out[i] = PlatformSpec{Kind: tok}
		} else {
			out[i] = PlatformSpec{Device: tok}
		}
	}
	return out
}

// Validate checks the selector-arm exclusivity and the override
// ranges; selector existence (domain, device, region names) is checked
// at resolution.
func (p PlatformSpec) Validate() error {
	arms := 0
	if p.Kind != "" {
		arms++
	}
	if p.Device != "" {
		arms++
	}
	if p.Config != nil {
		arms++
	}
	switch {
	case arms == 0:
		return &Error{Code: "invalid_request",
			Message: "platform spec needs exactly one of kind, device, config"}
	case arms > 1:
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s sets more than one selector (kind, device, config are mutually exclusive)",
			p.describe())}
	case p.Kind == "" && p.Domain != "":
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s: domain only applies to kind selectors", p.describe())}
	case p.Kind != "" && p.Domain == "":
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform kind %q needs a domain", p.Kind)}
	case p.DutyCycle < 0 || p.DutyCycle > 1:
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s: duty cycle %g outside (0,1]", p.describe(), p.DutyCycle)}
	case p.ChipLifetimeYears < 0:
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s: negative chip lifetime %g", p.describe(), p.ChipLifetimeYears)}
	case p.UseRegion != "" && p.Trace != nil:
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s sets both use_region and an inline trace; they are mutually exclusive",
			p.describe())}
	}
	traced := p.Trace != nil
	if p.UseRegion != "" {
		reg, err := carbon.ByName(p.UseRegion)
		if err != nil {
			return &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"platform spec %s: unknown region %q (valid: %s)",
				p.describe(), p.UseRegion, carbon.NamesList())}
		}
		traced = traced || reg.Traced
	}
	if p.Trace != nil {
		if _, err := carbon.FromGrams(p.Trace.GPerKWh); err != nil {
			return &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"platform spec %s: %v", p.describe(), err)}
		}
	}
	switch p.Shift {
	case "", carbon.ShiftDaily:
	default:
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s: unknown shift policy %q (valid: %s)",
			p.describe(), p.Shift, carbon.ShiftDaily)}
	}
	if p.Shift != "" && !traced {
		return &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"platform spec %s: shift %q needs an hourly trace — an inline trace or a traced region",
			p.describe(), p.Shift)}
	}
	return nil
}

// describe names the spec in error messages and duplicate checks.
func (p PlatformSpec) describe() string {
	switch {
	case p.Device != "":
		return fmt.Sprintf("%q", p.Device)
	case p.Config != nil:
		if p.Config.Device != "" {
			return fmt.Sprintf("%q", p.Config.Device)
		}
		return fmt.Sprintf("%q", p.Config.Name)
	case p.Domain != "":
		return fmt.Sprintf("%q", p.Domain+"/"+p.Kind)
	default:
		return fmt.Sprintf("%q", p.Kind)
	}
}

// hasOverrides reports whether any cross-cutting override is set.
func (p PlatformSpec) hasOverrides() bool {
	return p.DutyCycle != 0 || p.UseRegion != "" || p.Trace != nil ||
		p.Shift != "" || p.ChipLifetimeYears != 0
}

// normalizedWith fills a kind selector's empty domain from the
// request-level default.
func (p PlatformSpec) normalizedWith(domain string) PlatformSpec {
	if p.Kind != "" && p.Domain == "" {
		p.Domain = domain
	}
	return p
}

// isPlainKind reports a bare domain-member selector: the given kind of
// the given domain with no overrides — the shape every legacy request
// expands to, and the shape that may reuse the memoized domain-set
// compilations.
func (p PlatformSpec) isPlainKind(domain, kind string) bool {
	return p.Kind == kind && p.Domain == domain && p.Device == "" && p.Config == nil && !p.hasOverrides()
}

// specDomains fills empty kind-selector domains from the request
// default and returns the selectors' common domain: the unique domain
// among kind selectors, or "" when there is none (or they disagree).
// The normalized request records this as its domain, so the kind-list
// legacy spelling and the explicit-spec spelling hash identically.
func specDomains(specs []PlatformSpec, domain string) string {
	common, disagree := "", false
	for i := range specs {
		specs[i] = specs[i].normalizedWith(domain)
		if specs[i].Kind == "" {
			continue
		}
		switch {
		case common == "":
			common = specs[i].Domain
		case common != specs[i].Domain:
			disagree = true
		}
	}
	if disagree {
		return ""
	}
	return common
}

// needsDomain reports whether normalization must supply a default
// domain: an empty platform list (implying a domain set) or a kind
// selector that has not named its own.
func needsDomain(specs []PlatformSpec) bool {
	if len(specs) == 0 {
		return true
	}
	for _, sp := range specs {
		if sp.Kind != "" && sp.Domain == "" {
			return true
		}
	}
	return false
}

// normalizedPlatforms is the platform half of every compute request's
// normalization: it copies specs, defaults a missing domain to DNN
// where a kind selector needs one, expands an empty list through
// defaults, and returns the specs with the domain they share.
func normalizedPlatforms(specs []PlatformSpec, domain string,
	defaults func(domain string) []PlatformSpec) ([]PlatformSpec, string) {
	specs = append([]PlatformSpec(nil), specs...)
	if domain == "" && needsDomain(specs) {
		domain = "DNN"
	}
	if len(specs) == 0 {
		specs = defaults(domain)
	}
	if len(specs) > 0 {
		domain = specDomains(specs, domain)
	}
	return specs, domain
}

// pairSpecs is a domain's paper-default FPGA-vs-ASIC pair.
func pairSpecs(domain string) []PlatformSpec {
	return []PlatformSpec{{Domain: domain, Kind: "fpga"}, {Domain: domain, Kind: "asic"}}
}

// domainKindSpecs expands "the domain's full platform set" into
// explicit kind specs, in set order. Unknown domains return nil; the
// compute entry points surface the lookup error.
func domainKindSpecs(domain string) []PlatformSpec {
	d, err := isoperf.ByName(domain)
	if err != nil {
		return nil
	}
	set, err := d.Set()
	if err != nil {
		return nil
	}
	specs := make([]PlatformSpec, len(set))
	for i, p := range set {
		specs[i] = PlatformSpec{Domain: domain, Kind: string(p.Spec.Kind)}
	}
	return specs
}

// AppConfig is one explicit application of a workload spec, sharing
// the scenario document's JSON schema (internal/config.Application):
// sized directly in gates or derived from a workload-library kernel.
type AppConfig = config.Application

// WorkloadSpec describes the work one way on every compute endpoint.
// Exactly one arm applies:
//
//   - uniform: napps identical applications of lifetime_years and
//     volume (size_gates optionally sizing each for N_FPGA) — the
//     shape of the paper's §4.2 studies;
//   - apps: an explicit application list, the scenario document's
//     "apps" schema;
//   - timeline: deployments on a wall-clock timeline, given explicitly
//     or via the staggered-arrival generator (napps arriving every
//     interval_years), with a fleet-sizing policy.
//
// The uniform fields double as the timeline generator's knobs: on a
// timeline endpoint a workload with only uniform fields is the
// generator shorthand, and normalization expands it into explicit
// deployments so both spellings share one cache entry. Endpoints
// accept the arms their response can express — evaluate takes uniform
// or apps, compare/crossover/sweep/mc take uniform, timeline takes a
// timeline — and reject the others rather than silently reinterpreting
// them.
type WorkloadSpec struct {
	// NApps is the uniform application count (or the generator's).
	NApps int `json:"napps,omitempty"`
	// LifetimeYears is each application's T_i.
	LifetimeYears float64 `json:"lifetime_years,omitempty"`
	// Volume is each application's N_vol.
	Volume float64 `json:"volume,omitempty"`
	// SizeGates sizes each application for N_FPGA (0 fits one device).
	SizeGates float64 `json:"size_gates,omitempty"`

	// Apps is the explicit application list.
	Apps []AppConfig `json:"apps,omitempty"`

	// Deployments is the explicit timeline.
	Deployments []TimelineDeployment `json:"deployments,omitempty"`
	// IntervalYears is the staggered generator's arrival interval.
	IntervalYears float64 `json:"interval_years,omitempty"`
	// Sizing provisions reusable fleets: "shared" or "dedicated".
	Sizing string `json:"sizing,omitempty"`

	// StrictEq2 selects the literal Eq. 2 app-dev accounting (apps and
	// timeline arms; the uniform compute path always uses the default
	// accounting).
	StrictEq2 bool `json:"strict_eq2,omitempty"`
}

// workloadArm identifies which arm a spec uses.
type workloadArm int

const (
	armUniform workloadArm = iota
	armApps
	armTimeline
)

// arm classifies the spec. The uniform fields alone read as uniform;
// timeline endpoints treat that as the generator shorthand and expand
// it before this is consulted.
func (w WorkloadSpec) arm() workloadArm {
	switch {
	case len(w.Apps) > 0:
		return armApps
	case len(w.Deployments) > 0 || w.IntervalYears != 0 || w.Sizing != "":
		return armTimeline
	default:
		return armUniform
	}
}

// uniformArm checks the spec is purely uniform and returns it, for the
// endpoints whose response carries one (napps, lifetime, volume)
// scenario.
func (w WorkloadSpec) uniformArm(what string) (WorkloadSpec, error) {
	switch w.arm() {
	case armApps:
		return w, &Error{Code: "invalid_request",
			Message: what + " takes a uniform workload (napps/lifetime_years/volume), not explicit apps"}
	case armTimeline:
		return w, &Error{Code: "invalid_request",
			Message: what + " takes a uniform workload (napps/lifetime_years/volume), not a timeline"}
	}
	if w.StrictEq2 {
		return w, &Error{Code: "invalid_request",
			Message: "strict_eq2 applies to apps and timeline workloads; the uniform path always uses the default accounting"}
	}
	return w, nil
}

// checkNApps rejects a uniform workload of fewer than one
// application before any evaluation runs.
func checkNApps(n int) error {
	if n < 1 {
		return &Error{Code: "invalid_request", Message: fmt.Sprintf("napps must be >= 1, got %d", n)}
	}
	return nil
}

// withUniformDefaults fills zero uniform fields with the given
// defaults (a zero default leaves the field alone), so spelled-out and
// omitted defaults are one cache entry. Non-uniform arms pass through
// untouched for the arm check to reject.
func (w WorkloadSpec) withUniformDefaults(napps int, lifetime, volume float64) WorkloadSpec {
	if w.arm() != armUniform {
		return w
	}
	if w.NApps == 0 && napps != 0 {
		w.NApps = napps
	}
	if w.LifetimeYears == 0 && lifetime != 0 {
		w.LifetimeYears = lifetime
	}
	if w.Volume == 0 && volume != 0 {
		w.Volume = volume
	}
	return w
}

// normalizedTimeline canonicalizes a timeline workload: the generator
// shorthand expands into explicit deployments (bounded regardless of
// the requested count — one entry past MaxTimelineDeployments is
// enough to reject without allocating billions), explicit deployments
// win over (and clear) the generator fields, empty deployment names
// become "app1", "app2", ... in timeline order, and the fleet sizing
// defaults to shared. Negative generator counts are preserved
// un-expanded so the compute entry point can reject them rather than
// silently serving the default timeline.
func (w WorkloadSpec) normalizedTimeline() (WorkloadSpec, error) {
	if len(w.Apps) > 0 {
		return w, &Error{Code: "invalid_request",
			Message: "timeline takes deployments or the staggered generator, not explicit apps"}
	}
	if w.Sizing == "" {
		w.Sizing = string(core.SizeShared)
	}
	switch {
	case len(w.Deployments) == 0 && w.NApps >= 0:
		n := w.NApps
		if n == 0 {
			n = 5
		}
		if n > MaxTimelineDeployments {
			n = MaxTimelineDeployments + 1
		}
		interval := w.IntervalYears
		if interval == 0 {
			interval = 0.5
		}
		lifetime := w.LifetimeYears
		if lifetime == 0 {
			lifetime = 2
		}
		volume := w.Volume
		if volume == 0 {
			volume = 1e6
		}
		for i := 0; i < n; i++ {
			w.Deployments = append(w.Deployments, TimelineDeployment{
				StartYears:    float64(i) * interval,
				LifetimeYears: lifetime,
				Volume:        volume,
				SizeGates:     w.SizeGates,
			})
		}
		w.NApps, w.IntervalYears, w.LifetimeYears, w.Volume, w.SizeGates = 0, 0, 0, 0, 0
	case len(w.Deployments) > 0:
		// The copy keeps re-normalizing from sharing the input's
		// backing array.
		w.Deployments = append([]TimelineDeployment(nil), w.Deployments...)
		w.NApps, w.IntervalYears, w.LifetimeYears, w.Volume, w.SizeGates = 0, 0, 0, 0, 0
	}
	for i := range w.Deployments {
		if w.Deployments[i].Name == "" {
			w.Deployments[i].Name = fmt.Sprintf("app%d", i+1)
		}
	}
	return w, nil
}
