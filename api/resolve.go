// Resolution: the shared layer that turns []PlatformSpec +
// WorkloadSpec into compiled platforms and core scenarios/schedules.
// Every compute endpoint — evaluate, compare, crossover, timeline,
// sweep, mc — resolves its request through this file, so one spec
// grammar reaches the whole engine and equivalent spellings share the
// Evaluator's compiled-platform cache.

package api

import (
	"context"
	"fmt"

	"greenfpga/internal/carbon"
	"greenfpga/internal/config"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/telemetry"
	"greenfpga/internal/units"
)

// Catalog-device deployment defaults: a Table 3 device selected by
// name is deployed with the same knobs as the CLI's catalog
// head-to-head (`greenfpga compare -fpga/-asic`). Spec overrides apply
// on top.
const (
	catalogDutyCycle       = 0.3
	catalogPUE             = 1.2
	catalogDesignEngineers = 500
	catalogDesignYears     = 2
)

// platform materializes the spec's core.Platform: the selector arm's
// base platform with the cross-cutting overrides applied. Validation
// of the resulting platform happens in core.Compile.
func (p PlatformSpec) platform() (core.Platform, error) {
	var base core.Platform
	switch {
	case p.Kind != "":
		d, err := isoperf.ByName(p.Domain)
		if err != nil {
			return core.Platform{}, err
		}
		set, err := d.Set()
		if err != nil {
			return core.Platform{}, err
		}
		base, err = set.Member(device.Kind(p.Kind))
		if err != nil {
			return core.Platform{}, &Error{Code: "invalid_request",
				Message: fmt.Sprintf("domain %s: %v", d.Name, err)}
		}
	case p.Device != "":
		spec, err := device.ByName(p.Device)
		if err != nil {
			return core.Platform{}, err
		}
		base = core.Platform{
			Spec:            spec,
			DutyCycle:       catalogDutyCycle,
			PUE:             catalogPUE,
			DesignEngineers: catalogDesignEngineers,
			DesignDuration:  units.YearsOf(catalogDesignYears),
		}
	case p.Config != nil:
		var err error
		base, err = p.Config.ToPlatform()
		if err != nil {
			return core.Platform{}, err
		}
	}
	if p.DutyCycle != 0 {
		base.DutyCycle = p.DutyCycle
	}
	if p.UseRegion != "" {
		reg, err := carbon.ByName(p.UseRegion)
		if err != nil {
			return core.Platform{}, &Error{Code: "invalid_request", Message: err.Error()}
		}
		base.UseMix = reg.Mix
		base.UseTrace, base.UseIntegrator = nil, nil
		if reg.Traced {
			// Traced regions ship their cached compiled constants so
			// every spec siting a platform there shares one prefix table.
			it, err := carbon.IntegratorFor(reg.Name)
			if err != nil {
				return core.Platform{}, err
			}
			base.UseIntegrator = it
		}
	}
	if p.Trace != nil {
		tr, err := carbon.FromGrams(p.Trace.GPerKWh)
		if err != nil {
			return core.Platform{}, &Error{Code: "invalid_request", Message: err.Error()}
		}
		base.UseTrace, base.UseIntegrator = tr, nil
	}
	if p.Shift != "" {
		base.UseShift = p.Shift
	}
	if p.ChipLifetimeYears != 0 {
		base.ChipLifetime = units.YearsOf(p.ChipLifetimeYears)
	}
	return base, nil
}

// resolveSpec resolves one spec to a compiled platform. Plain domain
// members reuse the memoized domain-set compilations (shared with
// every legacy-shaped request); everything else — catalog devices,
// inline configs, any spec with overrides — is compiled once and
// content-addressed in the Evaluator's compiled-platform cache under
// the spec's canonical JSON.
func (e *Evaluator) resolveSpec(sp PlatformSpec) (*core.Compiled, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if c, ok, err := e.plainMember(sp); ok || err != nil {
		return c, err
	}
	// Hash only the specs that reach the content-addressed cache: the
	// plain-member fast path above never needs a key.
	key, err := CanonicalKey("spec", sp)
	if err != nil {
		return nil, err
	}
	return e.compiledForSpec(sp, key)
}

// resolveSpecKeyed is resolveSpec with the spec's canonical key
// already computed (resolveAll derives one per spec for duplicate
// detection anyway, so resolution never hashes a spec twice).
func (e *Evaluator) resolveSpecKeyed(sp PlatformSpec, key string) (*core.Compiled, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if c, ok, err := e.plainMember(sp); ok || err != nil {
		return c, err
	}
	return e.compiledForSpec(sp, key)
}

// plainMember resolves a bare {domain, kind} selector through the
// memoized domain-set compilations; ok is false when the spec needs
// the content-addressed path instead.
func (e *Evaluator) plainMember(sp PlatformSpec) (*core.Compiled, bool, error) {
	if sp.Kind == "" || sp.hasOverrides() {
		return nil, false, nil
	}
	cs, err := isoperf.CompiledSet(sp.Domain)
	if err != nil {
		return nil, true, err
	}
	c, err := setMember(cs, sp.Kind)
	return c, true, err
}

// compiledForSpec is the content-addressed compile: hit the
// compiled-platform cache under the spec's canonical key, or build,
// compile and admit.
func (e *Evaluator) compiledForSpec(sp PlatformSpec, key string) (*core.Compiled, error) {
	if v, ok := e.compiled.Get(key); ok {
		return v.(*core.Compiled), nil
	}
	p, err := sp.platform()
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(p)
	if err != nil {
		return nil, err
	}
	e.compiled.Put(key, c)
	return c, nil
}

// ResolveSet resolves a spec list into a compiled platform set, in
// spec order, rejecting duplicate specs. It is the entry point behind
// every endpoint's platform resolution (and the BenchmarkResolveSpecs
// subject).
func (e *Evaluator) ResolveSet(specs []PlatformSpec) (core.CompiledSet, error) {
	return e.resolveAll(context.Background(), specs, "", "platform set", 1)
}

// resolveAll resolves specs — timed as ctx's resolve stage — with an
// endpoint-named error context, a minimum platform count, and an
// unknown-domain fallback: a request whose full-set expansion failed
// (empty specs with a named domain) surfaces the domain lookup error
// instead of a generic one.
func (e *Evaluator) resolveAll(ctx context.Context, specs []PlatformSpec, domain, what string, min int) (core.CompiledSet, error) {
	defer telemetry.StartStage(ctx, "resolve")()
	if len(specs) == 0 {
		if domain != "" {
			if _, err := isoperf.ByName(domain); err != nil {
				return nil, err
			}
		}
		return nil, &Error{Code: "invalid_request",
			Message: what + " needs at least one platform"}
	}
	seen := make(map[string]bool, len(specs))
	cs := make(core.CompiledSet, len(specs))
	for i, sp := range specs {
		key, err := CanonicalKey("spec", sp)
		if err != nil {
			return nil, err
		}
		if seen[key] {
			return nil, &Error{Code: "invalid_request",
				Message: fmt.Sprintf("duplicate platform %s", sp.describe())}
		}
		seen[key] = true
		c, err := e.resolveSpecKeyed(sp, key)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	if len(cs) < min {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("%s needs at least %d platforms", what, min)}
	}
	return cs, nil
}

// scenario materializes the workload's core.Scenario (uniform or apps
// arm); timeline workloads are rejected — their results need the
// timeline response shape.
func (w WorkloadSpec) scenario(name string) (core.Scenario, error) {
	switch w.arm() {
	case armApps:
		if w.NApps != 0 || w.LifetimeYears != 0 || w.Volume != 0 || w.SizeGates != 0 {
			return core.Scenario{}, &Error{Code: "invalid_request",
				Message: "workload sets both explicit apps and uniform fields; use exactly one arm"}
		}
		if len(w.Deployments) > 0 || w.IntervalYears != 0 || w.Sizing != "" {
			return core.Scenario{}, &Error{Code: "invalid_request",
				Message: "workload sets both explicit apps and timeline fields; use exactly one arm"}
		}
		cfg := config.Scenario{Name: name, Apps: w.Apps, StrictEq2: w.StrictEq2}
		return cfg.ToScenario()
	case armTimeline:
		return core.Scenario{}, &Error{Code: "invalid_request",
			Message: "this endpoint takes a uniform or apps workload, not a timeline; POST /v1/timeline instead"}
	}
	if w.NApps == 0 && w.LifetimeYears == 0 && w.Volume == 0 && w.SizeGates == 0 {
		// An entirely empty workload — a scenario document with an
		// empty apps list, say — reads as "no applications", not as a
		// malformed napps the client never sent.
		return core.Scenario{}, core.Scenario{Name: name}.Validate()
	}
	if err := checkNApps(w.NApps); err != nil {
		return core.Scenario{}, err
	}
	s := core.Uniform(name, w.NApps, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates)
	s.StrictEq2 = w.StrictEq2
	if err := s.Validate(); err != nil {
		return core.Scenario{}, err
	}
	return s, nil
}

// schedule materializes a normalized timeline workload's
// core.Schedule.
func (w WorkloadSpec) schedule(name string) core.Schedule {
	sch := core.Schedule{
		Name:      name,
		Sizing:    core.FleetSizing(w.Sizing),
		StrictEq2: w.StrictEq2,
	}
	for _, d := range w.Deployments {
		sch.Deployments = append(sch.Deployments, core.Deployment{
			App: core.Application{
				Name:      d.Name,
				Lifetime:  units.YearsOf(d.LifetimeYears),
				Volume:    d.Volume,
				SizeGates: d.SizeGates,
			},
			Start: units.YearsOf(d.StartYears),
		})
	}
	return sch
}
