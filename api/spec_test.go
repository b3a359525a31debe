package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"greenfpga/internal/config"
	"greenfpga/internal/isoperf"
)

// decodeNormalizedKey mirrors the server: strictly decode the body
// into the endpoint's typed request, normalize, and content-address.
func decodeNormalizedKey(t *testing.T, endpoint, body string) string {
	t.Helper()
	decode := func(dst any) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			t.Fatalf("%s: body %s did not decode: %v", endpoint, body, err)
		}
	}
	var norm any
	switch endpoint {
	case "/v1/evaluate":
		var r EvaluateRequest
		decode(&r)
		n := r.Normalized()
		norm = &n
	case "/v1/compare":
		var r CompareRequest
		decode(&r)
		norm = r.Normalized()
	case "/v1/crossover":
		var r CrossoverRequest
		decode(&r)
		norm = r.Normalized()
	case "/v1/timeline":
		var r TimelineRequest
		decode(&r)
		norm = r.Normalized()
	case "/v1/sweep":
		var r SweepRequest
		decode(&r)
		norm = r.Normalized()
	case "/v1/mc":
		var r MonteCarloRequest
		decode(&r)
		norm = r.Normalized()
	default:
		t.Fatalf("unknown endpoint %s", endpoint)
	}
	key, err := CanonicalKey(endpoint, norm)
	if err != nil {
		t.Fatalf("%s: key: %v", endpoint, err)
	}
	return key
}

// TestLegacySpecKeyUnification is the core cache contract of the
// request-model redesign: every legacy body and its spec-form spelling
// normalize to one CanonicalKey, so they share one server cache entry
// (and therefore one response document).
func TestLegacySpecKeyUnification(t *testing.T) {
	for _, tc := range []struct {
		name, endpoint, legacy, spec string
	}{
		{
			"compare kinds list", "/v1/compare",
			`{"domain":"DNN","platforms":["gpu","asic"],"napps":3}`,
			`{"platforms":[{"domain":"DNN","kind":"gpu"},{"domain":"DNN","kind":"asic"}],` +
				`"workload":{"napps":3,"lifetime_years":2,"volume":1e6},"max_apps":12}`,
		},
		{
			"compare defaults", "/v1/compare",
			`{}`,
			`{"domain":"DNN","platforms":["fpga","asic","gpu","cpu"],` +
				`"workload":{"napps":5,"lifetime_years":2,"volume":1000000}}`,
		},
		{
			"crossover selectors", "/v1/crossover",
			`{"domain":"ImgProc","platform_a":"fpga","platform_b":"gpu","napps":4}`,
			`{"platforms":[{"domain":"ImgProc","kind":"fpga"},{"domain":"ImgProc","kind":"gpu"}],` +
				`"workload":{"napps":4,"lifetime_years":2,"volume":1e6},"max_apps":30}`,
		},
		{
			"crossover defaults", "/v1/crossover",
			`{"domain":"Crypto"}`,
			`{"platforms":["fpga","asic"],"domain":"Crypto",` +
				`"workload":{"napps":5,"lifetime_years":2,"volume":1e6}}`,
		},
		{
			"sweep pair", "/v1/sweep",
			`{"domain":"Crypto","axis":"lifetime","points":5}`,
			`{"axis":"lifetime","points":5,` +
				`"platforms":[{"domain":"Crypto","kind":"fpga"},{"domain":"Crypto","kind":"asic"}],` +
				`"workload":{"napps":5,"volume":1e6}}`,
		},
		{
			"sweep on-axis value ignored", "/v1/sweep",
			`{"axis":"napps"}`,
			`{"axis":"napps","platforms":["fpga","asic"],` +
				`"workload":{"napps":99,"lifetime_years":2,"volume":1e6}}`,
		},
		{
			"mc napps", "/v1/mc",
			`{"napps":7,"seed":3}`,
			`{"domain":"DNN","seed":3,"samples":2000,"platforms":["fpga","asic"],` +
				`"workload":{"napps":7}}`,
		},
		{
			"timeline generator", "/v1/timeline",
			`{"napps":2,"chip_lifetime_years":8}`,
			`{"platforms":[` +
				`{"domain":"DNN","kind":"fpga","chip_lifetime_years":8},` +
				`{"domain":"DNN","kind":"asic","chip_lifetime_years":8},` +
				`{"domain":"DNN","kind":"gpu","chip_lifetime_years":8},` +
				`{"domain":"DNN","kind":"cpu","chip_lifetime_years":8}],` +
				`"workload":{"sizing":"shared","deployments":[` +
				`{"name":"app1","lifetime_years":2,"volume":1e6},` +
				`{"name":"app2","start_years":0.5,"lifetime_years":2,"volume":1e6}]}}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kl := decodeNormalizedKey(t, tc.endpoint, tc.legacy)
			ks := decodeNormalizedKey(t, tc.endpoint, tc.spec)
			if kl != ks {
				t.Errorf("legacy body and spec spelling hash differently:\n legacy %s -> %s\n spec   %s -> %s",
					tc.legacy, kl, tc.spec, ks)
			}
		})
	}
	// A body with genuinely different content must not collide.
	ka := decodeNormalizedKey(t, "/v1/compare", `{"napps":3}`)
	kb := decodeNormalizedKey(t, "/v1/compare", `{"napps":4}`)
	if ka == kb {
		t.Error("different compare scenarios share a key")
	}
}

// TestEvaluateKeyUnification covers the sixth endpoint with its
// structured scenario document: the legacy scenario body and the
// spec spelling built from the same document are one key.
func TestEvaluateKeyUnification(t *testing.T) {
	cfg := config.Example()
	legacy := EvaluateRequest{Scenario: cfg}
	spec := EvaluateRequest{
		Name: cfg.Name,
		Platforms: []PlatformSpec{
			{Config: cfg.FPGA},
			{Config: cfg.ASIC},
		},
		Workload: &WorkloadSpec{Apps: cfg.Apps},
	}
	ln := legacy.Normalized()
	sn := spec.Normalized()
	kl, err := CanonicalKey("/v1/evaluate", &ln)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := CanonicalKey("/v1/evaluate", &sn)
	if err != nil {
		t.Fatal(err)
	}
	if kl != ks {
		t.Errorf("scenario body and its spec spelling hash differently: %s vs %s", kl, ks)
	}
	// And they evaluate to byte-identical responses.
	e := NewEvaluator(8)
	rl, err := e.Evaluate(context.Background(), &legacy)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Evaluate(context.Background(), &spec)
	if err != nil {
		t.Fatal(err)
	}
	var bl, bs bytes.Buffer
	if err := WriteJSON(&bl, rl); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bs, rs); err != nil {
		t.Fatal(err)
	}
	if bl.String() != bs.String() {
		t.Errorf("legacy and spec evaluations differ:\n%s\nvs\n%s", bl.String(), bs.String())
	}
}

// TestRandomizedKeyUnification is the property form: across random
// domains, kind pairs and scenario values, the legacy spelling and the
// spec spelling of the same request hash identically on every
// endpoint, and normalization stays idempotent under the key.
func TestRandomizedKeyUnification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	domains := []string{"DNN", "ImgProc", "Crypto"}
	kinds := []string{"fpga", "asic", "gpu", "cpu"}
	key := func(endpoint string, norm any) string {
		t.Helper()
		k, err := CanonicalKey(endpoint, norm)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for i := 0; i < 200; i++ {
		domain := domains[rng.Intn(len(domains))]
		ka := kinds[rng.Intn(len(kinds))]
		kb := kinds[rng.Intn(len(kinds))]
		napps := rng.Intn(12) + 1
		lifetime := float64(rng.Intn(40)+1) / 10
		volume := float64(rng.Intn(9)+1) * 1e5
		maxapps := rng.Intn(20) + 1

		legacyCross := CrossoverRequest{
			Domain: domain, PlatformA: ka, PlatformB: kb,
			NApps: napps, LifetimeYears: lifetime, Volume: volume, MaxApps: maxapps,
		}.Normalized()
		specCross := CrossoverRequest{
			Platforms: []PlatformSpec{{Domain: domain, Kind: ka}, {Domain: domain, Kind: kb}},
			Workload:  &WorkloadSpec{NApps: napps, LifetimeYears: lifetime, Volume: volume},
			MaxApps:   maxapps,
		}.Normalized()
		if k1, k2 := key("/v1/crossover", legacyCross), key("/v1/crossover", specCross); k1 != k2 {
			t.Fatalf("iter %d: crossover legacy %s vs spec %s", i, k1, k2)
		}

		legacyCmp := CompareRequest{
			Domain: domain, Platforms: KindSpecs(ka, kb),
			NApps: napps, LifetimeYears: lifetime, Volume: volume, MaxApps: maxapps,
		}.Normalized()
		specCmp := CompareRequest{
			Platforms: []PlatformSpec{{Domain: domain, Kind: ka}, {Domain: domain, Kind: kb}},
			Workload:  &WorkloadSpec{NApps: napps, LifetimeYears: lifetime, Volume: volume},
			MaxApps:   maxapps,
		}.Normalized()
		if k1, k2 := key("/v1/compare", legacyCmp), key("/v1/compare", specCmp); k1 != k2 {
			t.Fatalf("iter %d: compare legacy %s vs spec %s", i, k1, k2)
		}

		legacyMC := MonteCarloRequest{Domain: domain, NApps: napps, Seed: int64(i + 1)}.Normalized()
		specMC := MonteCarloRequest{
			Platforms: []PlatformSpec{{Domain: domain, Kind: "fpga"}, {Domain: domain, Kind: "asic"}},
			Workload:  &WorkloadSpec{NApps: napps},
			Seed:      int64(i + 1),
		}.Normalized()
		if k1, k2 := key("/v1/mc", legacyMC), key("/v1/mc", specMC); k1 != k2 {
			t.Fatalf("iter %d: mc legacy %s vs spec %s", i, k1, k2)
		}

		// Marshal/decode round trips and double normalization never
		// move a key.
		var buf bytes.Buffer
		if err := WriteJSON(&buf, legacyCmp); err != nil {
			t.Fatal(err)
		}
		var back CompareRequest
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("iter %d: round trip: %v\n%s", i, err, buf.String())
		}
		if k1, k2 := key("/v1/compare", legacyCmp), key("/v1/compare", back.Normalized()); k1 != k2 {
			t.Fatalf("iter %d: compare round trip moved the key", i)
		}
		if k1, k2 := key("/v1/crossover", legacyCross), key("/v1/crossover", legacyCross.Normalized()); k1 != k2 {
			t.Fatalf("iter %d: crossover normalization not idempotent", i)
		}
	}
}

// TestResolveSpecArms exercises the three selector arms and the
// overrides through the shared resolver.
func TestResolveSpecArms(t *testing.T) {
	e := NewEvaluator(16)

	// Plain domain members share the memoized domain-set compilations.
	c, err := e.resolveSpec(PlatformSpec{Domain: "DNN", Kind: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := isoperf.CompiledSet("DNN")
	if err != nil {
		t.Fatal(err)
	}
	member, err := setMember(cs, "gpu")
	if err != nil {
		t.Fatal(err)
	}
	if c != member {
		t.Error("plain kind spec must reuse the memoized domain-set compilation")
	}

	// Catalog devices deploy with the head-to-head defaults.
	c, err = e.resolveSpec(PlatformSpec{Device: "IndustryFPGA1"})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Platform()
	if p.Spec.Name != "IndustryFPGA1" || p.DutyCycle != 0.3 || p.PUE != 1.2 || p.DesignEngineers != 500 {
		t.Errorf("catalog defaults: %+v", p)
	}

	// Inline configs resolve through the scenario-config pipeline.
	c, err = e.resolveSpec(PlatformSpec{Config: &PlatformConfig{Device: "IndustryASIC1", DutyCycle: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Platform(); p.Spec.Name != "IndustryASIC1" || p.DutyCycle != 0.5 {
		t.Errorf("config arm: %+v", p)
	}

	// Overrides apply on top of any arm and produce a distinct
	// compilation.
	plain, err := e.resolveSpec(PlatformSpec{Domain: "DNN", Kind: "fpga"})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.resolveSpec(PlatformSpec{
		Domain: "DNN", Kind: "fpga",
		DutyCycle: 0.8, ChipLifetimeYears: 4, UseRegion: "iceland",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned == plain {
		t.Error("override spec must not alias the plain compilation")
	}
	tp := tuned.Platform()
	if tp.DutyCycle != 0.8 || tp.ChipLifetime.Years() != 4 {
		t.Errorf("overrides not applied: %+v", tp)
	}
	if fmt.Sprint(tp.UseMix) == fmt.Sprint(plain.Platform().UseMix) {
		t.Error("use-region override not applied")
	}

	// Repeated resolution hits the compiled-platform cache.
	again, err := e.resolveSpec(PlatformSpec{Device: "IndustryFPGA1"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.resolveSpec(PlatformSpec{Device: "IndustryFPGA1"})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("repeated device resolution must return the cached compilation")
	}

	// Error paths: arm exclusivity, missing arms, unknown names, bad
	// overrides.
	for _, bad := range []PlatformSpec{
		{},
		{Kind: "fpga", Device: "IndustryFPGA1"},
		{Device: "IndustryFPGA1", Config: &PlatformConfig{}},
		{Domain: "DNN"},
		{Kind: "fpga"},
		{Domain: "DNN", Device: "IndustryFPGA1"},
		{Domain: "Quantum", Kind: "fpga"},
		{Domain: "DNN", Kind: "npu"},
		{Device: "nope"},
		{Domain: "DNN", Kind: "fpga", DutyCycle: 1.5},
		{Domain: "DNN", Kind: "fpga", DutyCycle: -0.1},
		{Domain: "DNN", Kind: "fpga", ChipLifetimeYears: -1},
		{Domain: "DNN", Kind: "fpga", UseRegion: "atlantis"},
	} {
		if _, err := e.resolveSpec(bad); err == nil {
			t.Errorf("spec %+v must not resolve", bad)
		}
	}
}

// TestEvaluateSpecForm covers the spec spelling of /v1/evaluate and
// the legacy-shape constraint: the response carries dedicated
// fpga/asic sides, so GPU/CPU platforms are rejected, not dropped.
func TestEvaluateSpecForm(t *testing.T) {
	e := NewEvaluator(8)
	resp, err := e.Evaluate(context.Background(), &EvaluateRequest{
		Name: "uniform-study",
		Platforms: []PlatformSpec{
			{Domain: "DNN", Kind: "fpga"},
			{Domain: "DNN", Kind: "asic"},
		},
		Workload: &WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scenario != "uniform-study" || resp.FPGA == nil || resp.ASIC == nil || resp.Ratio == nil {
		t.Fatalf("spec evaluate: %+v", resp)
	}
	// The §4.2 reference point: ASIC wins at five applications.
	if resp.Verdict != "asic" {
		t.Errorf("DNN at N=5: verdict %q, want asic", resp.Verdict)
	}
	// Single-platform studies keep working.
	single, err := e.Evaluate(context.Background(), &EvaluateRequest{
		Platforms: []PlatformSpec{{Device: "IndustryASIC1"}},
		Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 2, Volume: 1e5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.FPGA != nil || single.ASIC == nil || single.Verdict != "" {
		t.Fatalf("single-platform evaluate: %+v", single)
	}

	for _, tc := range []struct {
		name string
		req  EvaluateRequest
		want string
	}{
		{"gpu rejected", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "gpu"}, {Domain: "DNN", Kind: "asic"}},
			Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 1, Volume: 10},
		}, "/v1/compare"},
		{"duplicate side", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Device: "IndustryFPGA1"}},
			Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 1, Volume: 10},
		}, "one per side"},
		{"too many", EvaluateRequest{
			Platforms: KindSpecs("fpga", "asic", "gpu"),
			Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 1, Volume: 10},
		}, "/v1/compare"},
		{"missing workload", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
		}, "workload"},
		{"mixed forms", EvaluateRequest{
			Scenario:  config.Example(),
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
		}, "exactly one form"},
		{"timeline arm", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
			Workload:  &WorkloadSpec{Deployments: []TimelineDeployment{{LifetimeYears: 1, Volume: 1}}},
		}, "/v1/timeline"},
		{"apps plus timeline fields", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
			Workload: &WorkloadSpec{
				Apps:        []AppConfig{{Name: "a", LifetimeYears: 1, Volume: 1}},
				Deployments: []TimelineDeployment{{LifetimeYears: 1, Volume: 1}},
			},
		}, "exactly one arm"},
		{"apps plus sizing", EvaluateRequest{
			Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
			Workload: &WorkloadSpec{
				Apps:   []AppConfig{{Name: "a", LifetimeYears: 1, Volume: 1}},
				Sizing: "dedicated",
			},
		}, "exactly one arm"},
	} {
		_, err := e.Evaluate(context.Background(), &tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Kind specs without a domain default to DNN at evaluate (the
	// request carries no domain field of its own), and the bare-kind
	// spelling shares a key with the explicit-domain spelling.
	bare := EvaluateRequest{
		Platforms: KindSpecs("fpga"),
		Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 1, Volume: 10},
	}
	resp2, err := e.Evaluate(context.Background(), &bare)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.FPGA == nil || resp2.FPGA.Platform != "DNN-FPGA" {
		t.Fatalf("bare kind at evaluate must default to DNN: %+v", resp2)
	}
	bn := bare.Normalized()
	explicit := EvaluateRequest{
		Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}},
		Workload:  &WorkloadSpec{NApps: 1, LifetimeYears: 1, Volume: 10},
	}
	en := explicit.Normalized()
	kb, _ := CanonicalKey("/v1/evaluate", &bn)
	ke, _ := CanonicalKey("/v1/evaluate", &en)
	if kb != ke {
		t.Errorf("bare-kind and explicit-domain evaluate spellings hash differently")
	}
	// A legacy scenario with an empty apps list keeps its
	// no-applications error (not a complaint about napps).
	_, err = e.Evaluate(context.Background(), &EvaluateRequest{Scenario: &ScenarioConfig{
		Name: "x", FPGA: &PlatformConfig{Device: "IndustryFPGA1", DutyCycle: 0.3},
	}})
	if err == nil || !strings.Contains(err.Error(), "no applications") {
		t.Errorf("empty-apps scenario error: %v", err)
	}
}

// TestOrthogonalityMatrix spot-checks the studies the redesign
// unlocks: sweeping a GPU/CPU set, Monte-Carlo over GPU-vs-FPGA,
// crossover between catalog devices, a timeline over inline configs.
func TestOrthogonalityMatrix(t *testing.T) {
	// Sweep any platform set: per-platform totals, no pair fields.
	sw, err := testEval.RunSweep(context.Background(), SweepRequest{
		Axis:      "napps",
		To:        3,
		Platforms: KindSpecs("gpu", "cpu"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Platforms) != 2 || sw.Platforms[0] != "DNN-GPU" || sw.Platforms[1] != "DNN-CPU" {
		t.Fatalf("sweep platforms: %+v", sw.Platforms)
	}
	if len(sw.Points) != 3 {
		t.Fatalf("sweep points: %d", len(sw.Points))
	}
	for _, p := range sw.Points {
		if len(p.TotalsKg) != 2 || p.TotalsKg[0] <= 0 || p.TotalsKg[1] <= 0 {
			t.Errorf("point totals: %+v", p)
		}
		if p.FPGAKg != 0 || p.ASICKg != 0 || p.Ratio != 0 {
			t.Errorf("non-pair sweep must not fill pair fields: %+v", p)
		}
	}
	// The legacy pair shape keeps its dedicated fields.
	legacy, err := testEval.RunSweep(context.Background(), SweepRequest{Domain: "DNN", Axis: "napps", To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Platforms) != 0 {
		t.Errorf("legacy sweep must omit the platform list: %+v", legacy.Platforms)
	}
	for _, p := range legacy.Points {
		if p.FPGAKg <= 0 || p.ASICKg <= 0 || p.Ratio <= 0 || p.TotalsKg != nil {
			t.Errorf("legacy point: %+v", p)
		}
	}
	// A three-platform sweep works too (the old engine was hardwired
	// to the pair).
	wide, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "lifetime", Points: 4, Platforms: KindSpecs("fpga", "asic", "gpu")})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Platforms) != 3 || len(wide.Points[0].TotalsKg) != 3 {
		t.Fatalf("3-platform sweep: %+v", wide.Platforms)
	}

	// Monte-Carlo over GPU-vs-FPGA.
	mc, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{
		Samples: 50, Seed: 9,
		Platforms: KindSpecs("gpu", "fpga"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.PlatformA != "gpu" || mc.PlatformB != "fpga" {
		t.Errorf("mc echoes: %+v", mc)
	}
	if mc.Mean <= 0 || len(mc.Tornado) == 0 {
		t.Errorf("mc result: %+v", mc)
	}
	// The legacy default keeps its shape (no echoes) and exactly the
	// numbers of its spelled-out (fpga, asic) spec form.
	legacyMC, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{Samples: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if legacyMC.PlatformA != "" || legacyMC.PlatformB != "" {
		t.Errorf("legacy mc must omit echoes: %+v", legacyMC)
	}
	specMC, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{Samples: 50, Seed: 9, Platforms: KindSpecs("fpga", "asic")})
	if err != nil {
		t.Fatal(err)
	}
	var lb, sb bytes.Buffer
	if err := WriteJSON(&lb, legacyMC); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&sb, specMC); err != nil {
		t.Fatal(err)
	}
	if lb.String() != sb.String() {
		t.Error("spec spelling of the default mc pair changed the response")
	}
	for _, bad := range []MonteCarloRequest{
		{Platforms: []PlatformSpec{{Device: "IndustryFPGA1"}, {Domain: "DNN", Kind: "asic"}}, Samples: 10},
		{Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga", DutyCycle: 0.5}, {Domain: "DNN", Kind: "asic"}}, Samples: 10},
		{Platforms: []PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Domain: "Crypto", Kind: "asic"}}, Samples: 10},
		{Platforms: KindSpecs("fpga", "fpga"), Samples: 10},
		{Platforms: KindSpecs("fpga"), Samples: 10},
		{Workload: &WorkloadSpec{NApps: 3, Volume: 10}, Samples: 10},
	} {
		if _, err := testEval.RunMonteCarlo(context.Background(), bad); err == nil {
			t.Errorf("mc request %+v must error", bad)
		}
	}

	// Crossover between two catalog devices, echoing their names.
	cx, err := testEval.RunCrossover(context.Background(), CrossoverRequest{
		Platforms: []PlatformSpec{{Device: "IndustryFPGA1"}, {Device: "IndustryASIC1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cx.PlatformA != "IndustryFPGA1" || cx.PlatformB != "IndustryASIC1" {
		t.Errorf("catalog crossover echoes: %+v", cx)
	}
	if cx.Domain != "" {
		t.Errorf("catalog crossover has no domain, got %q", cx.Domain)
	}
	// With the catalog deployment knobs the big industry FPGA die never
	// catches the ASIC within the default search — the solve must still
	// report that deterministically rather than error.
	if cx.A2FNumApps.Found {
		t.Errorf("industry FPGA unexpectedly crossed at %g applications", cx.A2FNumApps.Value)
	}
	// Flipping the operands asks where the ASIC beats the FPGA: from
	// the first application.
	flip, err := testEval.RunCrossover(context.Background(), CrossoverRequest{
		Platforms: []PlatformSpec{{Device: "IndustryASIC1"}, {Device: "IndustryFPGA1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flip.A2FNumApps.Found || flip.A2FNumApps.Value != 1 {
		t.Errorf("flipped catalog crossover: %+v", flip.A2FNumApps)
	}

	// Timeline over inline configs.
	inline := func(name, kind string, area, power float64, gates float64) *PlatformConfig {
		return &PlatformConfig{
			Name: name, Kind: kind, Node: "10nm",
			DieAreaMM2: area, PeakPowerW: power, CapacityGates: gates,
			DutyCycle: 0.2, DesignEngineers: 300, DesignYears: 2,
		}
	}
	tl, err := testEval.RunTimeline(context.Background(), TimelineRequest{
		Platforms: []PlatformSpec{
			{Config: inline("custom-fpga", "fpga", 600, 3, 60e6)},
			{Config: inline("custom-asic", "asic", 150, 1, 0)},
		},
		Workload: &WorkloadSpec{NApps: 3, IntervalYears: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Domain != "" || len(tl.Platforms) != 2 || tl.Winner == "" {
		t.Fatalf("inline timeline: %+v", tl)
	}
	if tl.Platforms[0].Platform != "custom-fpga" || tl.Platforms[1].Platform != "custom-asic" {
		t.Errorf("inline timeline platforms: %+v", tl.Platforms)
	}

	// Compare across catalog devices: domain-free, winner well-defined.
	cmp, err := testEval.RunCompare(context.Background(), CompareRequest{
		Platforms: []PlatformSpec{{Device: "IndustryFPGA1"}, {Device: "IndustryASIC1"}},
		NApps:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Domain != "" || len(cmp.Platforms) != 2 || cmp.Winner == "" {
		t.Fatalf("catalog compare: %+v", cmp)
	}
}

// TestLegacySugarConflicts checks that a request setting a legacy
// field alongside its spec form is rejected, not silently resolved.
func TestLegacySugarConflicts(t *testing.T) {
	uniform := &WorkloadSpec{NApps: 2, LifetimeYears: 1, Volume: 10}
	for name, err := range map[string]error{
		"compare":   errOf(testEval.RunCompare(context.Background(), CompareRequest{NApps: 3, Workload: uniform})),
		"crossover": errOf(testEval.RunCrossover(context.Background(), CrossoverRequest{Volume: 5, Workload: uniform})),
		"crossover selectors": errOf(testEval.RunCrossover(context.Background(), CrossoverRequest{
			PlatformA: "fpga", PlatformB: "gpu", Platforms: KindSpecs("fpga", "gpu"),
		})),
		"mc": errOf(testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{NApps: 3, Workload: &WorkloadSpec{NApps: 2}})),
		"timeline": errOf(testEval.RunTimeline(context.Background(), TimelineRequest{
			NApps: 3, Workload: &WorkloadSpec{NApps: 2},
		})),
		"sweep arm": errOf(testEval.RunSweep(context.Background(), SweepRequest{
			Workload: &WorkloadSpec{Apps: []AppConfig{{Name: "a", LifetimeYears: 1, Volume: 1}}},
		})),
	} {
		if err == nil {
			t.Errorf("%s: conflicting request must error", name)
		}
	}
}

// errOf discards a response, keeping the error for table-driven
// conflict checks.
func errOf[T any](_ T, err error) error { return err }

// TestSpecStringForm pins the bare-string platform shorthand and the
// strictness of spec objects.
func TestSpecStringForm(t *testing.T) {
	var req CompareRequest
	if err := json.Unmarshal([]byte(`{"platforms":["gpu",{"domain":"DNN","kind":"asic"}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Platforms) != 2 || req.Platforms[0].Kind != "gpu" || req.Platforms[1].Domain != "DNN" {
		t.Fatalf("mixed string/object platforms: %+v", req.Platforms)
	}
	// Unknown fields inside a spec object are rejected even under a
	// lenient outer decoder.
	if err := json.Unmarshal([]byte(`{"platforms":[{"kindd":"gpu"}]}`), &req); err == nil {
		t.Error("typoed spec field must not decode")
	}
	var sp PlatformSpec
	if err := json.Unmarshal([]byte(`null`), &sp); err != nil {
		t.Fatalf("null spec: %v", err)
	}
	if sp != (PlatformSpec{}) {
		t.Errorf("null spec must decode to the zero value: %+v", sp)
	}
}

// TestSweepWorkloadOffAxis checks the new off-axis workload knob: a
// lifetime sweep at a non-default application count differs from the
// default, and the swept axis ignores its own workload field.
func TestSweepWorkloadOffAxis(t *testing.T) {
	base, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "lifetime", Points: 3})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "lifetime", Points: 3, Workload: &WorkloadSpec{NApps: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Points[0].FPGAKg >= heavy.Points[0].FPGAKg {
		t.Errorf("nine applications must cost more than five: %g vs %g",
			base.Points[0].FPGAKg, heavy.Points[0].FPGAKg)
	}
	onAxis, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "napps", To: 2, Workload: &WorkloadSpec{NApps: 99}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := testEval.RunSweep(context.Background(), SweepRequest{Axis: "napps", To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(onAxis.Points) != fmt.Sprint(def.Points) {
		t.Error("the swept axis must ignore its own workload field")
	}
}

// TestMCSpecValidation pins the multi-arm rejection on /v1/mc: the
// only endpoint that resolves kinds without compiling must still run
// every spec through Validate.
func TestMCSpecValidation(t *testing.T) {
	_, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{
		Samples: 10,
		Platforms: []PlatformSpec{
			{Kind: "gpu", Device: "IndustryASIC1"},
			{Kind: "asic"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "more than one selector") {
		t.Errorf("multi-arm mc spec must be rejected by Validate, got %v", err)
	}
	// Every draw evaluates an napps-application scenario, so the
	// application count is bounded like the draw count.
	if _, err := testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{
		Samples: 2, Workload: &WorkloadSpec{NApps: MaxMonteCarloApps},
	}); err != nil {
		t.Errorf("napps at the limit must run: %v", err)
	}
	_, err = testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{
		Samples: 2, Workload: &WorkloadSpec{NApps: MaxMonteCarloApps + 1},
	})
	if e := ToError(err); err == nil || e.Code != "invalid_request" ||
		!strings.Contains(e.Message, fmt.Sprint(MaxMonteCarloApps)) {
		t.Errorf("napps above the limit must be an invalid_request naming %d, got %v",
			MaxMonteCarloApps, err)
	}
	// A count below one is rejected before any draw runs, as compare,
	// timeline and fleet reject it, not by draw 0's empty scenario.
	for _, n := range []int{-1, -5} {
		_, err = testEval.RunMonteCarlo(context.Background(), MonteCarloRequest{
			Samples: MaxMonteCarloSamples, Workload: &WorkloadSpec{NApps: n},
		})
		want := fmt.Sprintf("napps must be >= 1, got %d", n)
		if e := ToError(err); err == nil || e.Code != "invalid_request" || e.Message != want {
			t.Errorf("napps %d must be an invalid_request %q, got %v", n, want, err)
		}
	}
}
