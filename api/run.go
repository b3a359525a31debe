package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"greenfpga"

	"greenfpga/internal/cache"
	"greenfpga/internal/carbon"
	"greenfpga/internal/core"
	"greenfpga/internal/device"
	"greenfpga/internal/experiments"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/montecarlo"
	"greenfpga/internal/sweep"
	"greenfpga/internal/telemetry"
	"greenfpga/internal/units"
)

// Evaluator runs the compute endpoints with a content-addressed cache
// of compiled platforms: two requests resolving the same platform spec
// — regardless of workload — share one core.Compile, so repeated and
// swept queries hit the compiled fast path. Plain domain-set members
// additionally share the package-wide memoized domain compilations.
// An Evaluator is safe for concurrent use.
type Evaluator struct {
	compiled *cache.LRU
}

// NewEvaluator returns an Evaluator whose compiled-platform cache
// holds at most maxCompiled entries.
func NewEvaluator(maxCompiled int) *Evaluator {
	return &Evaluator{compiled: cache.New(maxCompiled)}
}

// CompileStats returns the compiled-platform cache's cumulative hit
// and miss counts.
func (e *Evaluator) CompileStats() (hits, misses uint64) { return e.compiled.Stats() }

// platformResult converts an assessment to its JSON form.
func platformResult(a core.Assessment) *PlatformResult {
	b := a.Breakdown
	return &PlatformResult{
		Platform: a.Platform,
		Kind:     string(a.Kind),
		TotalKg:  a.Total().Kilograms(),
		Breakdown: Breakdown{
			DesignKg:         b.Design.Kilograms(),
			ManufacturingKg:  b.Manufacturing.Kilograms(),
			PackagingKg:      b.Packaging.Kilograms(),
			EOLKg:            b.EOL.Kilograms(),
			OperationKg:      b.Operation.Kilograms(),
			AppDevelopmentKg: b.AppDevelopment.Kilograms(),
			ConfigurationKg:  b.Configuration.Kilograms(),
			TotalKg:          b.Total().Kilograms(),
		},
		DevicesManufactured: a.DevicesManufactured,
		FleetSize:           a.FleetSize,
		HardwareGenerations: a.HardwareGenerations,
	}
}

// Normalized expands the legacy scenario document into its spec form
// — name, {Config: ...} platform specs, an apps workload — so a
// scenario body and its spec spelling produce one canonical key, and
// fills the DNN default domain on bare kind selectors (the request
// carries no domain field of its own). A request that mixes the
// scenario with any spec field is left alone for Evaluate to reject.
func (r EvaluateRequest) Normalized() EvaluateRequest {
	if r.Scenario != nil && r.Name == "" && len(r.Platforms) == 0 && r.Workload == nil {
		sc := r.Scenario
		r.Name = sc.Name
		if sc.FPGA != nil {
			r.Platforms = append(r.Platforms, PlatformSpec{Config: sc.FPGA})
		}
		if sc.ASIC != nil {
			r.Platforms = append(r.Platforms, PlatformSpec{Config: sc.ASIC})
		}
		r.Workload = &WorkloadSpec{
			Apps:      append([]AppConfig(nil), sc.Apps...),
			StrictEq2: sc.StrictEq2,
		}
		r.Scenario = nil
		return r
	}
	if needsDomain(r.Platforms) && len(r.Platforms) > 0 {
		r.Platforms = append([]PlatformSpec(nil), r.Platforms...)
		for i := range r.Platforms {
			r.Platforms[i] = r.Platforms[i].normalizedWith("DNN")
		}
	}
	return r
}

// Evaluate assesses the request's platforms on its workload, matching
// `greenfpga run` exactly for legacy scenario bodies. Because the
// response carries dedicated fpga/asic sides, each platform must
// resolve to one of those kinds; GPU/CPU platforms are rejected rather
// than silently dropped — their studies go to RunCompare, whose
// response is kind-agnostic. Cancelling ctx stops the evaluation
// between platforms and surfaces the context error.
func (e *Evaluator) Evaluate(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, error) {
	if req == nil {
		return nil, &Error{Code: "invalid_request", Message: "missing scenario"}
	}
	r := req.Normalized()
	if r.Scenario != nil {
		return nil, &Error{Code: "invalid_request",
			Message: "scenario is legacy sugar for name/platforms/workload; use exactly one form"}
	}
	if len(r.Platforms) == 0 {
		if r.Workload != nil {
			return nil, &Error{Code: "invalid_request",
				Message: fmt.Sprintf("study %q needs at least one platform", r.Name)}
		}
		return nil, &Error{Code: "invalid_request", Message: "missing scenario (or platforms/workload specs)"}
	}
	if len(r.Platforms) > 2 {
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"the evaluate response carries one fpga and one asic side; %d platforms need /v1/compare",
			len(r.Platforms))}
	}
	if r.Workload == nil {
		return nil, &Error{Code: "invalid_request", Message: "missing workload"}
	}
	scen, err := r.Workload.scenario(r.Name)
	if err != nil {
		return nil, err
	}
	resp := &EvaluateResponse{Scenario: r.Name}
	for _, sp := range r.Platforms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stop := telemetry.StartStage(ctx, "resolve")
		c, err := e.resolveSpec(sp)
		stop()
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", sp.describe(), err)
		}
		kind := string(c.Platform().Spec.Kind)
		var slot **PlatformResult
		switch kind {
		case "fpga":
			slot = &resp.FPGA
		case "asic":
			slot = &resp.ASIC
		default:
			return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"the evaluate response carries dedicated fpga/asic sides; %s platform %s does not fit it — use /v1/compare",
				kind, sp.describe())}
		}
		if *slot != nil {
			return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"two %s platforms; the evaluate response carries one per side — use /v1/compare", kind)}
		}
		stop = telemetry.StartStage(ctx, "compute")
		a, err := c.Evaluate(scen)
		stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		*slot = platformResult(a)
	}
	if resp.FPGA != nil && resp.ASIC != nil {
		if resp.ASIC.TotalKg != 0 {
			r := resp.FPGA.TotalKg / resp.ASIC.TotalKg
			resp.Ratio = &r
		}
		resp.Verdict = "asic"
		if resp.FPGA.TotalKg < resp.ASIC.TotalKg {
			resp.Verdict = "fpga"
		}
	}
	return resp, nil
}

// setMember finds the set platform of the given kind.
func setMember(cs core.CompiledSet, kind string) (*core.Compiled, error) {
	kinds := make([]string, len(cs))
	for i, c := range cs {
		kinds[i] = string(c.Platform().Spec.Kind)
		if kinds[i] == kind {
			return c, nil
		}
	}
	return nil, &Error{Code: "invalid_request",
		Message: fmt.Sprintf("domain set has no %q platform (have: %v)", kind, kinds)}
}

// pairRatios lists the upper-triangle pairwise total ratios of a
// comparison. Zero-total denominators (impossible for physical
// platforms) are skipped rather than encoded as +Inf, which canonical
// JSON cannot carry.
func pairRatios(as []core.Assessment, ratios [][]float64) []PairRatio {
	var out []PairRatio
	for i := range as {
		for j := i + 1; j < len(as); j++ {
			if as[j].Total() == 0 {
				continue
			}
			out = append(out, PairRatio{A: as[i].Platform, B: as[j].Platform, Ratio: ratios[i][j]})
		}
	}
	return out
}

// specEchoes derives the response's platform_a/platform_b echoes: the
// paper's plain FPGA-vs-ASIC default stays silent (so legacy responses
// are byte-stable), anything else echoes the kind (for members of the
// request domain) or the resolved device name.
func specEchoes(specs []PlatformSpec, domain string, cs core.CompiledSet) (a, b string) {
	if domain != "" && specs[0].isPlainKind(domain, "fpga") && specs[1].isPlainKind(domain, "asic") {
		return "", ""
	}
	echo := func(sp PlatformSpec, c *core.Compiled) string {
		if sp.Kind != "" && sp.Domain == domain {
			return sp.Kind
		}
		return c.Platform().Spec.Name
	}
	return echo(specs[0], cs[0]), echo(specs[1], cs[1])
}

// Normalized canonicalizes the request: zero fields take the CLI
// defaults, the legacy domain/platform_a/platform_b selectors expand
// into platform specs, and the legacy scenario fields fold into the
// workload — so a legacy body and its spec spelling are one cache
// entry. Partially-set legacy selectors and legacy fields set
// alongside their spec forms are left in place for RunCrossover to
// reject.
func (r CrossoverRequest) Normalized() CrossoverRequest {
	r.Platforms = append([]PlatformSpec(nil), r.Platforms...)
	if r.Domain == "" && (needsDomain(r.Platforms) || r.PlatformA != "" || r.PlatformB != "") {
		r.Domain = "DNN"
	}
	switch {
	case len(r.Platforms) == 0 && r.PlatformA == "" && r.PlatformB == "":
		r.Platforms = pairSpecs(r.Domain)
	case len(r.Platforms) == 0 && r.PlatformA != "" && r.PlatformB != "":
		r.Platforms = []PlatformSpec{{Domain: r.Domain, Kind: r.PlatformA}, {Domain: r.Domain, Kind: r.PlatformB}}
		r.PlatformA, r.PlatformB = "", ""
	}
	if len(r.Platforms) > 0 {
		r.Domain = specDomains(r.Platforms, r.Domain)
	}
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{NApps: r.NApps, LifetimeYears: r.LifetimeYears, Volume: r.Volume}
		r.NApps, r.LifetimeYears, r.Volume = 0, 0, 0
	}
	w := r.Workload.withUniformDefaults(5, 2, 1e6)
	r.Workload = &w
	if r.MaxApps == 0 {
		r.MaxApps = 30
	}
	return r
}

// RunCrossover answers the three §4.2 crossover questions between the
// request's two platforms, matching `greenfpga crossover` exactly for
// legacy bodies. Any two specs solve — domain-set members, catalog
// devices, inline configs — through the generalized CrossoverBetween
// solvers: the A2F solve reports the first N_app where the first
// platform's total drops below the second's, and the F2A solves
// report where the two totals meet. The three solvers check ctx
// between solves.
func (e *Evaluator) RunCrossover(ctx context.Context, req CrossoverRequest) (*CrossoverResponse, error) {
	req = req.Normalized()
	if req.PlatformA != "" || req.PlatformB != "" {
		if len(req.Platforms) > 0 {
			return nil, &Error{Code: "invalid_request",
				Message: "platform_a/platform_b are legacy sugar for platforms; use exactly one form"}
		}
		return nil, &Error{Code: "invalid_request",
			Message: "platform_a and platform_b must be set together"}
	}
	if req.NApps != 0 || req.LifetimeYears != 0 || req.Volume != 0 {
		return nil, &Error{Code: "invalid_request",
			Message: "napps/lifetime_years/volume are legacy sugar for workload; use exactly one form"}
	}
	w, err := req.Workload.uniformArm("crossover")
	if err != nil {
		return nil, err
	}
	if len(req.Platforms) != 2 {
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"crossover solves between exactly two platforms, got %d", len(req.Platforms))}
	}
	cs, err := e.resolveAll(ctx, req.Platforms, req.Domain, "crossover", 2)
	if err != nil {
		return nil, err
	}
	defer telemetry.StartStage(ctx, "compute")()
	a, b := cs[0], cs[1]
	resp := &CrossoverResponse{Domain: req.Domain}
	resp.PlatformA, resp.PlatformB = specEchoes(req.Platforms, req.Domain, cs)
	n, found, err := core.CrossoverNumAppsBetween(a, b, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates, req.MaxApps)
	if err != nil {
		return nil, err
	}
	if found {
		resp.A2FNumApps = Solve{Found: true, Value: float64(n)}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, found, err := core.CrossoverLifetimeBetween(a, b, w.NApps, w.Volume, w.SizeGates, units.YearsOf(0.05), units.YearsOf(10))
	if err != nil {
		return nil, err
	}
	if found {
		resp.F2ALifetimeYears = Solve{Found: true, Value: t.Years()}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, found, err := core.CrossoverVolumeBetween(a, b, w.NApps, units.YearsOf(w.LifetimeYears), w.SizeGates, 1e2, 1e8)
	if err != nil {
		return nil, err
	}
	if found {
		resp.F2AVolume = Solve{Found: true, Value: v}
	}
	return resp, nil
}

// Normalized fills the CLI defaults for a compare request (DNN
// domain, full platform set, the §4.2 reference scenario, a
// 12-application frontier), expands an empty platform list into the
// domain's explicit kind specs, and folds the legacy scenario fields
// into the workload — one cache entry per semantic request.
func (r CompareRequest) Normalized() CompareRequest {
	r.Platforms, r.Domain = normalizedPlatforms(r.Platforms, r.Domain, domainKindSpecs)
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{NApps: r.NApps, LifetimeYears: r.LifetimeYears, Volume: r.Volume}
		r.NApps, r.LifetimeYears, r.Volume = 0, 0, 0
	}
	w := r.Workload.withUniformDefaults(5, 2, 1e6)
	r.Workload = &w
	if r.MaxApps == 0 {
		r.MaxApps = 12
	}
	return r
}

// MaxCompareApps bounds one compare request's frontier length, for
// the same reason as MaxSweepPoints.
const MaxCompareApps = 10_000

// RunCompare evaluates N platforms on a shared uniform scenario:
// per-platform assessments, pairwise total ratios, the minimum-CFP
// winner, and the winner per application count up to MaxApps. It
// matches `greenfpga compare -json` exactly. The frontier loop checks
// ctx per application count, so a cancelled request stops sweeping.
func (e *Evaluator) RunCompare(ctx context.Context, req CompareRequest) (*CompareResponse, error) {
	req = req.Normalized()
	if req.NApps != 0 || req.LifetimeYears != 0 || req.Volume != 0 {
		return nil, &Error{Code: "invalid_request",
			Message: "napps/lifetime_years/volume are legacy sugar for workload; use exactly one form"}
	}
	w, err := req.Workload.uniformArm("compare")
	if err != nil {
		return nil, err
	}
	if err := checkNApps(w.NApps); err != nil {
		return nil, err
	}
	if req.MaxApps < 1 {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("max_apps must be >= 1, got %d", req.MaxApps)}
	}
	if req.MaxApps > MaxCompareApps {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("%d frontier points exceeds the %d limit", req.MaxApps, MaxCompareApps)}
	}
	cs, err := e.resolveAll(ctx, req.Platforms, req.Domain, "compare", 2)
	if err != nil {
		return nil, err
	}

	defer telemetry.StartStage(ctx, "compute")()
	sc, err := cs.CompareUniform(w.NApps, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates)
	if err != nil {
		return nil, err
	}
	resp := &CompareResponse{
		Domain: req.Domain, NApps: w.NApps,
		LifetimeYears: w.LifetimeYears, Volume: w.Volume,
		Winner: sc.WinnerAssessment().Platform,
	}
	for _, a := range sc.Assessments {
		resp.Platforms = append(resp.Platforms, *platformResult(a))
	}
	resp.Ratios = pairRatios(sc.Assessments, sc.Ratios)
	for n := 1; n <= req.MaxApps; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fsc, err := cs.CompareUniform(n, units.YearsOf(w.LifetimeYears), w.Volume, w.SizeGates)
		if err != nil {
			return nil, err
		}
		win := fsc.WinnerAssessment()
		resp.Frontier = append(resp.Frontier, FrontierPoint{
			NApps: n, Winner: win.Platform, TotalKg: win.Total().Kilograms(),
		})
	}
	return resp, nil
}

// Normalized fills the CLI defaults for a timeline request, expands
// the platform list and the generator shorthand, folds the legacy
// timeline fields into the workload, and distributes a request-level
// chip-lifetime cap onto each platform spec's override — so a
// shorthand body and its spelled-out spec equivalent are one cache
// entry.
func (r TimelineRequest) Normalized() TimelineRequest {
	r.Platforms, r.Domain = normalizedPlatforms(r.Platforms, r.Domain, domainKindSpecs)
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{
			NApps: r.NApps, IntervalYears: r.IntervalYears,
			LifetimeYears: r.LifetimeYears, Volume: r.Volume,
			Deployments: r.Deployments, Sizing: r.Sizing,
		}
		r.Deployments, r.NApps, r.IntervalYears, r.LifetimeYears, r.Volume, r.Sizing =
			nil, 0, 0, 0, 0, ""
	}
	if w, err := r.Workload.normalizedTimeline(); err == nil {
		r.Workload = &w
	}
	if r.ChipLifetimeYears > 0 {
		for i := range r.Platforms {
			if r.Platforms[i].ChipLifetimeYears == 0 {
				r.Platforms[i].ChipLifetimeYears = r.ChipLifetimeYears
			}
		}
		r.ChipLifetimeYears = 0
	}
	return r
}

// MaxTimelineDeployments bounds one timeline's deployment count, for
// the same reason as MaxSweepPoints.
const MaxTimelineDeployments = 10_000

// sequentialized re-packs the schedule's deployments back to back in
// arrival order — the legacy Eqs. 1–2 assumption — for the
// sequential-contrast columns of the timeline response.
func sequentialized(sch core.Schedule) core.Schedule {
	deps := append([]core.Deployment(nil), sch.Deployments...)
	sort.SliceStable(deps, func(i, j int) bool { return deps[i].Start < deps[j].Start })
	out := core.Schedule{Name: sch.Name + "-sequential", Deployments: deps, Sizing: sch.Sizing, StrictEq2: sch.StrictEq2}
	out.BackToBack()
	return out
}

// RunTimeline evaluates a time-phased deployment schedule on N
// platforms: per-platform assessments with fleet, refresh and
// concurrency quantities, pairwise ratios, the winner, and a
// sequential-accounting contrast per platform. It matches `greenfpga
// timeline -json` exactly. Chip-lifetime caps ride on the platform
// specs, so capped platforms are compiled once and content-addressed
// like any other spec instead of recompiled per request. The
// per-platform schedule evaluations check ctx between platforms.
func (e *Evaluator) RunTimeline(ctx context.Context, req TimelineRequest) (*TimelineResponse, error) {
	req = req.Normalized()
	if len(req.Deployments) > 0 || req.NApps != 0 || req.IntervalYears != 0 ||
		req.LifetimeYears != 0 || req.Volume != 0 || req.Sizing != "" {
		return nil, &Error{Code: "invalid_request",
			Message: "deployments/napps/interval_years/lifetime_years/volume/sizing are legacy sugar for workload; use exactly one form"}
	}
	w, err := req.Workload.normalizedTimeline()
	if err != nil {
		return nil, err
	}
	if w.NApps < 0 {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("napps must be >= 1, got %d", w.NApps)}
	}
	if len(w.Deployments) > MaxTimelineDeployments {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("more than %d deployments exceeds the limit", MaxTimelineDeployments)}
	}
	if req.ChipLifetimeYears < 0 {
		return nil, &Error{Code: "invalid_request",
			Message: fmt.Sprintf("negative chip lifetime %g", req.ChipLifetimeYears)}
	}
	cs, err := e.resolveAll(ctx, req.Platforms, req.Domain, "timeline", 2)
	if err != nil {
		return nil, err
	}

	defer telemetry.StartStage(ctx, "compute")()
	sch := w.schedule(req.Domain + "-timeline")
	sc, err := cs.CompareSchedule(sch)
	if err != nil {
		return nil, ToError(err)
	}
	seq := sequentialized(sch)
	resp := &TimelineResponse{
		Domain:              req.Domain,
		Sizing:              w.Sizing,
		SpanYears:           sc.Span.Years(),
		SequentialSpanYears: seq.Span().Years(),
		PeakConcurrent:      sc.PeakConcurrent,
		Deployments:         w.Deployments,
		Winner:              sc.WinnerAssessment().Platform,
	}
	plain := make([]core.Assessment, len(sc.Assessments))
	for i, a := range sc.Assessments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plain[i] = a.Assessment
		sa, err := cs[i].EvaluateSchedule(seq)
		if err != nil {
			return nil, ToError(err)
		}
		resp.Platforms = append(resp.Platforms, TimelinePlatform{
			PlatformResult:    *platformResult(a.Assessment),
			PeakDemandDevices: a.PeakDemand,
			SequentialTotalKg: sa.Total().Kilograms(),
		})
	}
	resp.Ratios = pairRatios(plain, sc.Ratios)
	return resp, nil
}

// Normalized fills the per-axis CLI defaults, expands an empty
// platform list into the legacy {domain fpga, domain asic} pair, and
// canonicalizes the off-axis workload (the swept axis's own field is
// zeroed — its value comes from the axis), so bodies that spell the
// defaults out and bodies that omit them are one cache entry.
func (r SweepRequest) Normalized() SweepRequest {
	r.Platforms, r.Domain = normalizedPlatforms(r.Platforms, r.Domain, pairSpecs)
	if r.Axis == "" {
		r.Axis = "napps"
	}
	switch r.Axis {
	case "napps":
		if r.From <= 0 {
			r.From = 1
		}
		if r.To <= 0 {
			r.To = 12
		}
		r.From, r.To = float64(int(r.From)), float64(int(r.To))
		r.Points = int(r.To-r.From) + 1
	case "lifetime":
		if r.From <= 0 {
			r.From = 0.2
		}
		if r.To <= 0 {
			r.To = 2.5
		}
		if r.Points <= 0 {
			r.Points = 24
		}
	case "volume":
		if r.From <= 0 {
			r.From = 1e3
		}
		if r.To <= 0 {
			r.To = 1e6
		}
		if r.Points <= 0 {
			r.Points = 13
		}
	}
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{}
	}
	w := r.Workload.withUniformDefaults(5, 2, 1e6)
	switch r.Axis {
	case "napps":
		w.NApps = 0
	case "lifetime":
		w.LifetimeYears = 0
	case "volume":
		w.Volume = 0
	}
	r.Workload = &w
	return r
}

// MaxSweepPoints bounds one sweep's sample count: far above any
// plotting need, low enough that a single request cannot allocate
// unbounded memory on the service.
const MaxSweepPoints = 100_000

// MaxMonteCarloSamples bounds one uncertainty study for the same
// reason (draws cost ~microseconds each).
const MaxMonteCarloSamples = 1_000_000

// MaxMonteCarloApps bounds an uncertainty study's application count:
// every draw evaluates an napps-application scenario, so the count
// multiplies the cost of each of the study's draws.
const MaxMonteCarloApps = 1000

// SweepAxis materializes the request's axis sample points.
func (r SweepRequest) SweepAxis() (sweep.Axis, error) {
	if r.From > r.To {
		return sweep.Axis{}, fmt.Errorf("empty sweep range: from %g > to %g", r.From, r.To)
	}
	if r.Points > MaxSweepPoints {
		return sweep.Axis{}, fmt.Errorf("%d sweep points exceeds the %d limit", r.Points, MaxSweepPoints)
	}
	switch r.Axis {
	case "napps":
		return sweep.Axis{Name: "Num Apps", Values: sweep.IntRange(int(r.From), int(r.To))}, nil
	case "lifetime":
		return sweep.Axis{Name: "App Lifetime [y]", Values: sweep.Linspace(r.From, r.To, r.Points)}, nil
	case "volume":
		return sweep.Axis{Name: "App Volume", Values: sweep.Logspace(r.From, r.To, r.Points), Log: true}, nil
	default:
		return sweep.Axis{}, fmt.Errorf("unknown axis %q (napps, lifetime, volume)", r.Axis)
	}
}

// legacyPairShape reports the paper's sweep shape — exactly the
// request domain's plain FPGA and ASIC members — which keeps the
// dedicated fpga_kg/asic_kg/ratio response fields; any other platform
// set carries per-platform totals instead.
func (r SweepRequest) legacyPairShape() bool {
	return len(r.Platforms) == 2 && r.Domain != "" &&
		r.Platforms[0].isPlainKind(r.Domain, "fpga") &&
		r.Platforms[1].isPlainKind(r.Domain, "asic")
}

// RunSweep runs a 1-D sweep over the request's platform set, matching
// `greenfpga sweep` exactly for the legacy domain-pair shape.
// Off-axis parameters come from the workload (CLI defaults:
// 5 applications, 2-year lifetime, 1e6 volume). Every sweep worker
// checks ctx before its point, so a cancelled request stops the grid
// instead of computing doomed cells.
func (e *Evaluator) RunSweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	p, err := e.planSweep(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// sweepStudy is a validated, resolved sweep: the axis, the compiled
// platform set and the off-axis workload parameters — everything the
// point evaluation needs.
type sweepStudy struct {
	req SweepRequest // normalized
	ax  sweep.Axis
	w   WorkloadSpec
	cs  core.CompiledSet
}

// planSweep normalizes and validates the request and resolves its
// platform set (timing the resolve stage), then plans the axis in
// sweepChunkPoints-point chunks. A point's floats are its x and one
// total per platform.
func (e *Evaluator) planSweep(ctx context.Context, req SweepRequest) (*chunkPlan[*SweepResponse], error) {
	req = req.Normalized()
	ax, err := req.SweepAxis()
	if err != nil {
		return nil, err
	}
	w, err := req.Workload.uniformArm("sweep")
	if err != nil {
		return nil, err
	}
	cs, err := e.resolveAll(ctx, req.Platforms, req.Domain, "sweep", 1)
	if err != nil {
		return nil, err
	}
	return &chunkPlan[*SweepResponse]{items: len(ax.Values), perChunk: sweepChunkPoints, width: 1 + len(cs),
		chunker: &sweepStudy{req: req, ax: ax, w: w, cs: cs}}, nil
}

// compute evaluates axis points [lo, hi) over the compiled set — each
// point's totals in parallel, bound to ctx so a cancelled request
// stops the grid instead of computing doomed cells.
func (st *sweepStudy) compute(ctx context.Context, lo, hi int) ([]float64, error) {
	pts, err := sweep.RunRangeN(st.ax, len(st.cs), lo, hi, func(x float64, totals []units.Mass) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		nApps, tY, v := st.w.NApps, st.w.LifetimeYears, st.w.Volume
		switch st.req.Axis {
		case "napps":
			nApps = int(x + 0.5)
		case "lifetime":
			tY = x
		case "volume":
			v = x
		}
		for i, c := range st.cs {
			m, err := c.UniformTotal(nApps, units.YearsOf(tY), v, st.w.SizeGates)
			if err != nil {
				return err
			}
			totals[i] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := make([]float64, 0, len(pts)*(1+len(st.cs)))
	for _, p := range pts {
		flat = append(flat, p.X)
		for _, m := range p.Totals {
			flat = append(flat, m.Kilograms())
		}
	}
	return flat, nil
}

// assemble shapes the evaluated points' floats into the response
// document.
func (st *sweepStudy) assemble(_ context.Context, flat []float64) (*SweepResponse, error) {
	req := st.req
	width := 1 + len(st.cs)
	resp := &SweepResponse{Domain: req.Domain, Axis: req.Axis, Points: make([]SweepPoint, len(flat)/width)}
	legacy := req.legacyPairShape()
	if !legacy {
		for _, c := range st.cs {
			resp.Platforms = append(resp.Platforms, c.Platform().Spec.Name)
		}
	}
	for i := range resp.Points {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		if !legacy {
			resp.Points[i] = SweepPoint{X: row[0], TotalsKg: row[1:]}
			continue
		}
		f, a := row[1], row[2]
		ratio := math.Inf(1)
		if a != 0 {
			ratio = f / a
		}
		resp.Points[i] = SweepPoint{X: row[0], FPGAKg: f, ASICKg: a, Ratio: ratio}
	}
	return resp, nil
}

// Normalized fills the CLI defaults (2000 samples, seed 1, 5 apps,
// DNN domain, FPGA-vs-ASIC pair) and expands the legacy fields into
// the spec form.
func (r MonteCarloRequest) Normalized() MonteCarloRequest {
	r.Platforms, r.Domain = normalizedPlatforms(r.Platforms, r.Domain, pairSpecs)
	if r.Samples == 0 {
		r.Samples = 2000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{NApps: r.NApps}
		r.NApps = 0
	}
	w := r.Workload.withUniformDefaults(5, 0, 0)
	r.Workload = &w
	return r
}

// RunMonteCarlo propagates the Table 1 uncertainty ranges through the
// CFP ratio of two platforms of one domain set, matching `greenfpga
// mc` exactly for the legacy FPGA:ASIC shape. Because the draws
// perturb the domain calibration itself (duty cycle, design staffing,
// the FPGA app-dev flow), the platforms must be plain kind selectors
// of a single domain.
func (e *Evaluator) RunMonteCarlo(ctx context.Context, req MonteCarloRequest) (*MonteCarloResponse, error) {
	p, err := e.planMonteCarlo(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// mcStudy is a validated, resolved Monte-Carlo study: the domain
// calibration, the two plain platform kinds, the draw count and the
// study's Monte-Carlo configuration, built once per request.
type mcStudy struct {
	req   MonteCarloRequest // normalized
	d     greenfpga.Domain
	a, b  PlatformSpec
	nApps int
	cfg   greenfpga.MCConfig
}

// planMonteCarlo normalizes and validates the request and resolves the
// domain calibration (timing the resolve stage), then plans the draws
// in mcChunkDraws-draw chunks of one float each; the assembly computes
// the moments, percentiles and tornado over every draw in index order.
func (e *Evaluator) planMonteCarlo(ctx context.Context, req MonteCarloRequest) (*chunkPlan[*MonteCarloResponse], error) {
	req = req.Normalized()
	if req.NApps != 0 {
		return nil, &Error{Code: "invalid_request",
			Message: "napps is legacy sugar for workload; use exactly one form"}
	}
	w, err := req.Workload.uniformArm("mc")
	if err != nil {
		return nil, err
	}
	if w.LifetimeYears != 0 || w.Volume != 0 || w.SizeGates != 0 {
		return nil, &Error{Code: "invalid_request",
			Message: "mc draws the application lifetime from Table 1 and fixes the reference volume; the workload sets napps only"}
	}
	if err := checkNApps(w.NApps); err != nil {
		return nil, err
	}
	if req.Samples > MaxMonteCarloSamples {
		return nil, fmt.Errorf("%d samples exceeds the %d limit", req.Samples, MaxMonteCarloSamples)
	}
	if w.NApps > MaxMonteCarloApps {
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"napps %d exceeds the %d-application mc limit", w.NApps, MaxMonteCarloApps)}
	}
	if len(req.Platforms) != 2 {
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"mc studies the ratio of exactly two platforms, got %d", len(req.Platforms))}
	}
	for _, sp := range req.Platforms {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if sp.Kind == "" || sp.hasOverrides() {
			return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"mc draws Table 1 ranges around a domain calibration; platform %s must be a plain domain kind (fpga, asic, gpu, cpu)",
				sp.describe())}
		}
	}
	a, b := req.Platforms[0], req.Platforms[1]
	if a.Kind == b.Kind {
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"cannot study %q against itself", a.Kind)}
	}
	if req.Domain == "" {
		return nil, &Error{Code: "invalid_request",
			Message: "mc platforms must share one domain calibration"}
	}
	stop := telemetry.StartStage(ctx, "resolve")
	d, err := isoperf.ByName(req.Domain)
	stop()
	if err != nil {
		return nil, err
	}
	// The configuration outlives ctx: a job runs its chunks later,
	// each under its own context, which bound checks per draw.
	cfg := greenfpga.DomainRatioStudyConfig(context.Background(), d,
		greenfpga.DeviceKind(a.Kind), greenfpga.DeviceKind(b.Kind), w.NApps, req.Samples, req.Seed)
	return &chunkPlan[*MonteCarloResponse]{items: req.Samples, perChunk: mcChunkDraws, width: 1,
		chunker: &mcStudy{req: req, d: d, a: a, b: b, nApps: w.NApps, cfg: cfg}}, nil
}

// bound is the study's configuration with its model checking ctx
// before every draw.
func (m *mcStudy) bound(ctx context.Context) greenfpga.MCConfig {
	cfg, model := m.cfg, m.cfg.Model
	cfg.Model = func(draw []float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return model(draw)
	}
	return cfg
}

// compute evaluates draws [lo, hi).
func (m *mcStudy) compute(ctx context.Context, lo, hi int) ([]float64, error) {
	return montecarlo.RunRange(m.bound(ctx), lo, hi)
}

// assemble finalizes the draws — moments, percentiles and the tornado,
// over every draw in index order — into the response document.
func (m *mcStudy) assemble(ctx context.Context, draws []float64) (*MonteCarloResponse, error) {
	res, err := montecarlo.Finalize(m.bound(ctx), draws)
	if err != nil {
		return nil, err
	}
	wins := 0
	for _, s := range res.Samples {
		if s < 1 {
			wins++
		}
	}
	resp := &MonteCarloResponse{
		Domain: m.d.Name, Samples: m.req.Samples, Seed: m.req.Seed, NApps: m.nApps,
		Mean: res.Mean, StdDev: res.StdDev,
		Percentiles: Percentiles{
			P5:  res.Percentile(5),
			P25: res.Percentile(25),
			P50: res.Percentile(50),
			P75: res.Percentile(75),
			P95: res.Percentile(95),
		},
		ProbFPGAWins: float64(wins) / float64(len(res.Samples)),
	}
	if !(m.a.isPlainKind(m.req.Domain, "fpga") && m.b.isPlainKind(m.req.Domain, "asic")) {
		resp.PlatformA, resp.PlatformB = m.a.Kind, m.b.Kind
	}
	for _, s := range res.Tornado {
		resp.Tornado = append(resp.Tornado, TornadoEntry{Param: s.Param, Swing: s.Swing()})
	}
	return resp, nil
}

// Devices returns the Table 3 catalog in JSON form.
func Devices() DeviceList {
	var out DeviceList
	for _, s := range device.Catalog() {
		out.Devices = append(out.Devices, Device{
			Name:          s.Name,
			Kind:          string(s.Kind),
			Node:          s.Node.Name,
			DieAreaMM2:    s.DieArea.MM2(),
			PeakPowerW:    s.PeakPower.Watts(),
			CapacityGates: s.CapacityGates,
			BasedOn:       s.BasedOn,
		})
	}
	return out
}

// Domains returns the Table 2 testcases in JSON form.
func Domains() DomainList {
	var out DomainList
	for _, d := range isoperf.Domains() {
		out.Domains = append(out.Domains, Domain{
			Name:            d.Name,
			AreaRatio:       d.AreaRatio,
			PowerRatio:      d.PowerRatio,
			ASICAreaMM2:     d.ASICArea.MM2(),
			ASICPeakPowerW:  d.ASICPeakPower.Watts(),
			DutyCycle:       d.DutyCycle,
			DesignEngineers: d.DesignEngineers,
		})
	}
	return out
}

// Regions returns the carbon registry — scalar grid presets plus the
// traced hourly-signal regions — in JSON form.
func Regions() RegionList {
	var out RegionList
	for _, r := range carbon.Regions() {
		ci, _ := r.Intensity()
		entry := Region{
			Name:             r.Name,
			Description:      r.Description,
			Traced:           r.Traced,
			IntensityGPerKWh: ci.GramsPerKWh(),
		}
		if r.Traced {
			if it, err := carbon.IntegratorFor(r.Name); err == nil {
				// The integrator was built from this trace, which is
				// cached now, so reading it cannot fail.
				t, _ := r.Trace()
				entry.MeanGPerKWh = it.Mean().GramsPerKWh()
				lo, hi := t.Bounds()
				entry.MinGPerKWh = lo.GramsPerKWh()
				entry.MaxGPerKWh = hi.GramsPerKWh()
			}
		}
		out.Regions = append(out.Regions, entry)
	}
	return out
}

// fleetMaxApps bounds the per-region A2F crossover search, the same
// ceiling the crossover endpoint defaults to.
const fleetMaxApps = 30

// Normalized fills the CLI defaults for a fleet request (DNN domain,
// FPGA-vs-ASIC pair, every registry region, the §4.2 reference
// workload), so spelled-out and omitted defaults share one cache
// entry.
func (r FleetRequest) Normalized() FleetRequest {
	r.Platforms, r.Domain = normalizedPlatforms(r.Platforms, r.Domain, pairSpecs)
	if len(r.Regions) == 0 {
		r.Regions = carbon.Names()
	} else {
		r.Regions = append([]string(nil), r.Regions...)
	}
	if r.Workload == nil {
		r.Workload = &WorkloadSpec{}
	}
	w := r.Workload.withUniformDefaults(5, 2, 1e6)
	r.Workload = &w
	return r
}

// fleetStudy is a validated, resolved siting study: the candidate
// regions, the workload, and each platform compiled in each region
// (cells[region][platform]).
type fleetStudy struct {
	req     FleetRequest // normalized
	w       WorkloadSpec
	regions []carbon.Region
	means   []float64 // mean g/kWh per region (trace mean or scalar)
	names   []string  // platform names, cell order
	cells   [][]*core.Compiled
}

// planFleet normalizes and validates the request and compiles every
// (region, platform) cell — through the content-addressed spec cache,
// so two studies over overlapping grids share compilations — then
// plans one chunk per region: a region's whole platform row is a
// natural checkpoint unit (regions are independent, and a row is a
// handful of evaluations).
func (e *Evaluator) planFleet(ctx context.Context, req FleetRequest) (*chunkPlan[*FleetResponse], error) {
	req = req.Normalized()
	w, err := req.Workload.uniformArm("fleet")
	if err != nil {
		return nil, err
	}
	if err := checkNApps(w.NApps); err != nil {
		return nil, err
	}
	switch req.Shift {
	case "", carbon.ShiftDaily:
	default:
		return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
			"unknown shift policy %q (valid: %s)", req.Shift, carbon.ShiftDaily)}
	}
	st := &fleetStudy{req: req, w: w}
	seenRegion := make(map[string]bool, len(req.Regions))
	for _, name := range req.Regions {
		reg, err := carbon.ByName(name)
		if err != nil {
			return nil, &Error{Code: "invalid_request", Message: err.Error()}
		}
		if seenRegion[reg.Name] {
			return nil, &Error{Code: "invalid_request",
				Message: fmt.Sprintf("duplicate region %q", reg.Name)}
		}
		seenRegion[reg.Name] = true
		mean, err := reg.Intensity()
		if err != nil {
			return nil, err
		}
		if reg.Traced {
			it, err := carbon.IntegratorFor(reg.Name)
			if err != nil {
				return nil, err
			}
			mean = it.Mean()
		}
		st.regions = append(st.regions, reg)
		st.means = append(st.means, mean.GramsPerKWh())
	}
	seenSpec := make(map[string]bool, len(req.Platforms))
	for _, sp := range req.Platforms {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		if sp.UseRegion != "" || sp.Trace != nil || sp.Shift != "" {
			return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
				"fleet sites each platform in every candidate region; platform spec %s cannot carry its own region, trace or shift",
				sp.describe())}
		}
		key, err := CanonicalKey("spec", sp)
		if err != nil {
			return nil, err
		}
		if seenSpec[key] {
			return nil, &Error{Code: "invalid_request",
				Message: fmt.Sprintf("duplicate platform %s", sp.describe())}
		}
		seenSpec[key] = true
	}
	stop := telemetry.StartStage(ctx, "resolve")
	defer stop()
	st.cells = make([][]*core.Compiled, len(st.regions))
	for ri, reg := range st.regions {
		st.cells[ri] = make([]*core.Compiled, len(req.Platforms))
		for pi, sp := range req.Platforms {
			sited := sp
			sited.UseRegion = reg.Name
			if reg.Traced {
				sited.Shift = req.Shift
			}
			c, err := e.resolveSpec(sited)
			if err != nil {
				return nil, fmt.Errorf("platform %s in %s: %w", sp.describe(), reg.Name, err)
			}
			st.cells[ri][pi] = c
			if ri == 0 {
				st.names = append(st.names, c.Platform().Spec.Name)
			}
		}
	}
	return &chunkPlan[*FleetResponse]{items: len(st.regions), perChunk: 1, width: st.width(), chunker: st}, nil
}

// width is the per-region payload length: (total, operation, embodied)
// per platform, plus the crossover solve pair when the study sites
// exactly two platforms.
func (st *fleetStudy) width() int {
	n := 3 * len(st.names)
	if len(st.names) == 2 {
		n += 2
	}
	return n
}

// compute evaluates the platform rows of regions [lo, hi) — the shared
// uniform scenario per platform plus the pairwise A2F crossover — as
// one flat float vector, checking ctx between regions.
func (st *fleetStudy) compute(ctx context.Context, lo, hi int) ([]float64, error) {
	life := units.YearsOf(st.w.LifetimeYears)
	out := make([]float64, 0, (hi-lo)*st.width())
	for _, row := range st.cells[lo:hi] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, c := range row {
			a, err := c.EvaluateUniform(st.w.NApps, life, st.w.Volume, st.w.SizeGates)
			if err != nil {
				return nil, err
			}
			total := a.Total().Kilograms()
			op := a.Breakdown.Operation.Kilograms()
			out = append(out, total, op, total-op)
		}
		if len(row) == 2 {
			n, found, err := core.CrossoverNumAppsBetween(
				row[0], row[1], life, st.w.Volume, st.w.SizeGates, fleetMaxApps)
			if err != nil {
				return nil, err
			}
			f := 0.0
			if found {
				f = 1
			}
			out = append(out, f, float64(n))
		}
	}
	return out, nil
}

// assemble shapes the regions' floats, in region order, into the
// response document.
func (st *fleetStudy) assemble(_ context.Context, flat []float64) (*FleetResponse, error) {
	nP, width := len(st.names), st.width()
	resp := &FleetResponse{
		Domain:    st.req.Domain,
		Shift:     st.req.Shift,
		Platforms: st.names,
		Best:      FleetBest{TotalKg: math.Inf(1)},
	}
	bestBy := make([]FleetBest, nP)
	for i := range bestBy {
		bestBy[i].TotalKg = math.Inf(1)
	}
	for ri, reg := range st.regions {
		vals := flat[ri*width : (ri+1)*width]
		row := FleetRegionRow{
			Region:      reg.Name,
			Traced:      reg.Traced,
			MeanGPerKWh: st.means[ri],
			Cells:       make([]FleetCell, nP),
		}
		win := 0
		for pi := 0; pi < nP; pi++ {
			cell := FleetCell{
				TotalKg:     vals[3*pi],
				OperationKg: vals[3*pi+1],
				EmbodiedKg:  vals[3*pi+2],
			}
			row.Cells[pi] = cell
			if cell.TotalKg < row.Cells[win].TotalKg {
				win = pi
			}
			if cell.TotalKg < bestBy[pi].TotalKg {
				bestBy[pi] = FleetBest{Region: reg.Name, Platform: st.names[pi], TotalKg: cell.TotalKg}
			}
			if cell.TotalKg < resp.Best.TotalKg {
				resp.Best = FleetBest{Region: reg.Name, Platform: st.names[pi], TotalKg: cell.TotalKg}
			}
		}
		row.Winner = st.names[win]
		if nP == 2 {
			s := Solve{Found: vals[3*nP] != 0}
			if s.Found {
				s.Value = vals[3*nP+1]
			}
			row.A2FNumApps = &s
		}
		resp.Regions = append(resp.Regions, row)
	}
	resp.BestByPlatform = bestBy
	return resp, nil
}

// RunFleet runs a carbon-aware placement study: every platform sited
// in every candidate region on a shared uniform scenario, with the
// minimum-CFP placements and the per-region grid-aware crossovers. It
// matches `greenfpga fleet -json` exactly; scalar regions run the
// legacy closed-form path, traced regions integrate their hourly
// signal. The per-region evaluations check ctx between regions.
func (e *Evaluator) RunFleet(ctx context.Context, req FleetRequest) (*FleetResponse, error) {
	p, err := e.planFleet(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// Experiments returns the paper-artifact registry IDs in run order.
func Experiments() ExperimentList {
	return ExperimentList{Experiments: experiments.List()}
}

// Experiment regenerates one paper artifact in JSON form.
func Experiment(id string) (*ExperimentResult, error) {
	out, err := experiments.Run(id)
	if err != nil {
		return nil, err
	}
	res := &ExperimentResult{ID: out.ID, Title: out.Title, Charts: out.Charts, Notes: out.Notes}
	for _, t := range out.Tables {
		res.Tables = append(res.Tables, ExperimentTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	return res, nil
}

// encBuffers pools the encode-side scratch buffers: the server's miss
// path and the CLI's -json modes encode every response through one of
// these instead of allocating a fresh buffer per request.
var encBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeTo appends v's canonical encoding — compact, HTML escaping
// off, trailing newline — to buf. It is the single definition of the
// service's wire encoding; WriteJSON and EncodeJSON are its two
// callers (write-through vs retain).
func encodeTo(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// EncodeJSON returns v's canonical encoding as a fresh byte slice —
// the exact bytes WriteJSON would write, safe to retain indefinitely
// (the server's result cache stores these, and cached bytes are
// immutable by contract). The encode itself runs through a pooled
// buffer, so steady-state misses allocate only the retained copy.
func EncodeJSON(v any) ([]byte, error) {
	buf := encBuffers.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBuffers.Put(buf)
	}()
	if err := encodeTo(buf, v); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// WriteJSON encodes v the service's canonical way — compact, HTML
// escaping off, trailing newline. The CLI's -json modes and every
// server handler use it, which is what makes their outputs
// byte-identical. The encode lands in a pooled buffer and reaches w
// as one Write (buffers are written into directly).
func WriteJSON(w io.Writer, v any) error {
	if buf, ok := w.(*bytes.Buffer); ok {
		return encodeTo(buf, v)
	}
	buf := encBuffers.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		encBuffers.Put(buf)
	}()
	if err := encodeTo(buf, v); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// ToError coerces any compute error into the service's error
// envelope: *Error values pass through, context errors become the
// deadline_exceeded / canceled codes (the request was fine; its time
// ran out), and everything else becomes an invalid_request (every
// other Run* failure is a property of the request — an unknown
// domain, an invalid scenario — not of the server).
func ToError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Code: "deadline_exceeded",
			Message: "request deadline exceeded before the evaluation finished"}
	}
	if errors.Is(err, context.Canceled) {
		return &Error{Code: "canceled", Message: "request canceled before the evaluation finished"}
	}
	return &Error{Code: "invalid_request", Message: err.Error()}
}
