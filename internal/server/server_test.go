package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"greenfpga/api"
	"greenfpga/internal/config"
)

// newTestServer returns a service plus an httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return s, hts
}

// postJSON posts body (marshaled) and returns status and response
// bytes.
func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, body); err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, buf.String())
}

// postRaw posts a literal body.
func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// get fetches a URL.
func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// decodeErr decodes an error envelope.
func decodeErr(t *testing.T, data []byte) api.Error {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("not an error envelope: %q", data)
	}
	return e
}

// evaluateBody wraps the example config as an evaluate request.
func evaluateBody() *api.EvaluateRequest {
	return &api.EvaluateRequest{Scenario: config.Example()}
}

func TestHealthz(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := get(t, hts.URL+"/healthz")
	if code != http.StatusOK || string(data) != "{\"status\":\"ok\"}\n" {
		t.Errorf("healthz: %d %q", code, data)
	}
}

// TestEvaluateMatchesSharedCompute checks the endpoint returns
// exactly what the shared compute path (and therefore the CLI)
// produces.
func TestEvaluateMatchesSharedCompute(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
	if code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", code, data)
	}
	want, err := api.NewEvaluator(4).Evaluate(context.Background(), evaluateBody())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if string(data) != buf.String() {
		t.Errorf("server response differs from shared compute:\n%s\nvs\n%s", data, buf.String())
	}
}

func TestEvaluateValidationErrors(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed", `{"scenario":`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", `{"scenario":{"name":"x"},"bogus":1}`, http.StatusBadRequest, "invalid_request"},
		{"missing scenario", `{}`, http.StatusBadRequest, "invalid_request"},
		{"trailing data", `{"scenario":{"name":"x"}} garbage`, http.StatusBadRequest, "invalid_request"},
		{"no platforms", `{"scenario":{"name":"x","apps":[{"name":"a","lifetime_years":1,"volume":10}]}}`,
			http.StatusBadRequest, "invalid_request"},
		{"unknown device", `{"scenario":{"name":"x","fpga":{"device":"nope","duty_cycle":0.3},` +
			`"apps":[{"name":"a","lifetime_years":1,"volume":10}]}}`,
			http.StatusBadRequest, "invalid_request"},
	} {
		code, _, data := postRaw(t, hts.URL+"/v1/evaluate", tc.body)
		if code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.wantStatus, data)
			continue
		}
		if e := decodeErr(t, data); e.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.wantCode)
		}
	}
	// Wrong method falls through to ServeMux's 405.
	code, _, _ := get(t, hts.URL+"/v1/evaluate")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate: %d, want 405", code)
	}
}

// metricValue extracts one un-labeled metric value from /metrics.
func metricValue(t *testing.T, hts *httptest.Server, name string) int {
	t.Helper()
	_, _, data := get(t, hts.URL+"/metrics")
	for _, line := range strings.Split(string(data), "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, data)
	return 0
}

func TestCacheHitMissCounters(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	if v := metricValue(t, hts, "greenfpga_result_cache_hits_total"); v != 0 {
		t.Fatalf("fresh server has %d hits", v)
	}

	code, hdr, first := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first evaluate: %d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	code, hdr, second := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second evaluate: %d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit returned different bytes")
	}
	if hits := metricValue(t, hts, "greenfpga_result_cache_hits_total"); hits != 1 {
		t.Errorf("hits %d, want 1", hits)
	}
	if misses := metricValue(t, hts, "greenfpga_result_cache_misses_total"); misses != 1 {
		t.Errorf("misses %d, want 1", misses)
	}

	// A semantically identical body with shuffled key order is the
	// same content address.
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, evaluateBody()); err != nil {
		t.Fatal(err)
	}
	var loose map[string]any
	if err := json.Unmarshal(buf.Bytes(), &loose); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(loose) // map marshaling re-sorts keys
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, _ = postRaw(t, hts.URL+"/v1/evaluate", string(reordered))
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("reordered body: %d X-Cache=%q, want hit", code, hdr.Get("X-Cache"))
	}
}

func TestBatchEvaluate(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	good := evaluateBody()
	bad := &api.EvaluateRequest{Scenario: &api.ScenarioConfig{Name: "broken"}}
	code, _, data := postJSON(t, hts.URL+"/v1/evaluate/batch", &api.BatchEvaluateRequest{
		Requests: []api.EvaluateRequest{*good, *bad, *good},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, data)
	}
	var resp api.BatchEvaluateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Response == nil || resp.Results[0].Error != nil {
		t.Errorf("item 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != "invalid_request" {
		t.Errorf("item 1 should fail with invalid_request: %+v", resp.Results[1])
	}
	if resp.Results[2].Response == nil {
		t.Fatalf("item 2 should succeed: %+v", resp.Results[2])
	}
	a, _ := json.Marshal(resp.Results[0].Response)
	b, _ := json.Marshal(resp.Results[2].Response)
	if !bytes.Equal(a, b) {
		t.Error("identical batch items returned different results")
	}

	// The batch warmed the single-evaluate cache.
	_, hdr, _ := postJSON(t, hts.URL+"/v1/evaluate", good)
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("single evaluate after batch: X-Cache=%q, want hit", hdr.Get("X-Cache"))
	}

	// Empty and oversized batches are rejected.
	code, _, data = postJSON(t, hts.URL+"/v1/evaluate/batch", &api.BatchEvaluateRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty batch: %d %s", code, data)
	}
}

// TestBatchUnderTightLimiter checks batches drain through a 1-slot
// limiter (per-item acquisition; a whole-batch slot would deadlock).
func TestBatchUnderTightLimiter(t *testing.T) {
	_, hts := newTestServer(t, Options{MaxConcurrent: 1})
	reqs := make([]api.EvaluateRequest, 8)
	for i := range reqs {
		cfg := config.Example()
		cfg.Name = fmt.Sprintf("tight-%d", i)
		reqs[i] = api.EvaluateRequest{Scenario: cfg}
	}
	code, _, data := postJSON(t, hts.URL+"/v1/evaluate/batch", &api.BatchEvaluateRequest{Requests: reqs})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, data)
	}
	var resp api.BatchEvaluateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Results {
		if item.Response == nil {
			t.Errorf("item %d failed: %+v", i, item.Error)
		}
	}
}

func TestCrossoverDefaultsAndNormalization(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, hdr, data := postRaw(t, hts.URL+"/v1/crossover", `{}`)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("crossover {}: %d X-Cache=%q %s", code, hdr.Get("X-Cache"), data)
	}
	var resp api.CrossoverResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Domain != "DNN" || !resp.A2FNumApps.Found || resp.A2FNumApps.Value != 6 {
		t.Errorf("default crossover: %+v", resp)
	}
	// Spelling out the defaults lands on the same cache entry.
	code, hdr, _ = postRaw(t, hts.URL+"/v1/crossover",
		`{"domain":"DNN","lifetime_years":2,"napps":5,"volume":1e6,"max_apps":30}`)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("normalized crossover: %d X-Cache=%q, want hit", code, hdr.Get("X-Cache"))
	}
	code, _, data = postRaw(t, hts.URL+"/v1/crossover", `{"domain":"Quantum"}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown domain: %d %s", code, data)
	}
}

// TestLegacySpecSharedCacheEntry is the serve-side cache contract of
// the unified request model: a study posted in legacy form and then in
// its spec-form spelling lands on one cache entry — the second POST is
// an X-Cache hit with byte-identical body — on every retrofitted
// endpoint shape.
func TestLegacySpecSharedCacheEntry(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, path, legacy, spec string
	}{
		{
			"sweep", "/v1/sweep",
			`{"domain":"DNN","axis":"napps","to":4}`,
			`{"axis":"napps","to":4,"platforms":[{"domain":"DNN","kind":"fpga"},{"domain":"DNN","kind":"asic"}],` +
				`"workload":{"lifetime_years":2,"volume":1e6}}`,
		},
		{
			"compare", "/v1/compare",
			`{"domain":"Crypto","platforms":["gpu","asic"],"napps":2,"max_apps":3}`,
			`{"platforms":[{"domain":"Crypto","kind":"gpu"},{"domain":"Crypto","kind":"asic"}],` +
				`"workload":{"napps":2,"lifetime_years":2,"volume":1e6},"max_apps":3}`,
		},
		{
			"crossover", "/v1/crossover",
			`{"domain":"DNN","platform_a":"fpga","platform_b":"gpu"}`,
			`{"platforms":[{"domain":"DNN","kind":"fpga"},{"domain":"DNN","kind":"gpu"}],` +
				`"workload":{"napps":5,"lifetime_years":2,"volume":1e6}}`,
		},
		{
			"timeline", "/v1/timeline",
			`{"napps":2,"platforms":["fpga","asic"],"chip_lifetime_years":8}`,
			`{"platforms":[{"domain":"DNN","kind":"fpga","chip_lifetime_years":8},` +
				`{"domain":"DNN","kind":"asic","chip_lifetime_years":8}],` +
				`"workload":{"sizing":"shared","deployments":[` +
				`{"name":"app1","lifetime_years":2,"volume":1e6},` +
				`{"name":"app2","start_years":0.5,"lifetime_years":2,"volume":1e6}]}}`,
		},
		{
			"mc", "/v1/mc",
			`{"samples":60,"seed":5,"napps":3}`,
			`{"samples":60,"seed":5,"platforms":["fpga","asic"],"workload":{"napps":3}}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, legacyBody := postRaw(t, hts.URL+tc.path, tc.legacy)
			if code != http.StatusOK {
				t.Fatalf("legacy body: %d %s", code, legacyBody)
			}
			if hdr.Get("X-Cache") != "miss" {
				t.Fatalf("legacy body: X-Cache=%q, want miss", hdr.Get("X-Cache"))
			}
			code, hdr, specBody := postRaw(t, hts.URL+tc.path, tc.spec)
			if code != http.StatusOK {
				t.Fatalf("spec body: %d %s", code, specBody)
			}
			if hdr.Get("X-Cache") != "hit" {
				t.Errorf("spec spelling missed the legacy cache entry (X-Cache=%q)", hdr.Get("X-Cache"))
			}
			if !bytes.Equal(legacyBody, specBody) {
				t.Errorf("legacy and spec responses differ:\n%s\nvs\n%s", legacyBody, specBody)
			}
		})
	}
	// Evaluate: the scenario document vs its spec spelling.
	cfg := config.Example()
	code, hdr, legacyBody := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("legacy evaluate: %d X-Cache=%q", code, hdr.Get("X-Cache"))
	}
	code, hdr, specBody := postJSON(t, hts.URL+"/v1/evaluate", &api.EvaluateRequest{
		Name:      cfg.Name,
		Platforms: []api.PlatformSpec{{Config: cfg.FPGA}, {Config: cfg.ASIC}},
		Workload:  &api.WorkloadSpec{Apps: cfg.Apps},
	})
	if code != http.StatusOK {
		t.Fatalf("spec evaluate: %d %s", code, specBody)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("spec evaluate missed the scenario's cache entry (X-Cache=%q)", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(legacyBody, specBody) {
		t.Errorf("evaluate responses differ:\n%s\nvs\n%s", legacyBody, specBody)
	}
}

// TestSpecEndpointShapes covers the new spec-only studies over HTTP:
// platform-set sweeps carry per-platform totals, GPU-vs-FPGA mc
// echoes its pair, and a GPU platform routed at the legacy evaluate
// shape is rejected with a pointer to /v1/compare.
func TestSpecEndpointShapes(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := postRaw(t, hts.URL+"/v1/sweep",
		`{"axis":"napps","to":3,"platforms":["gpu","cpu"]}`)
	if code != http.StatusOK {
		t.Fatalf("set sweep: %d %s", code, data)
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Platforms) != 2 || len(sw.Points) != 3 || len(sw.Points[0].TotalsKg) != 2 {
		t.Errorf("set sweep response: %+v", sw)
	}
	code, _, data = postRaw(t, hts.URL+"/v1/mc",
		`{"samples":40,"platforms":["gpu","fpga"]}`)
	if code != http.StatusOK {
		t.Fatalf("mc: %d %s", code, data)
	}
	var mc api.MonteCarloResponse
	if err := json.Unmarshal(data, &mc); err != nil {
		t.Fatal(err)
	}
	if mc.PlatformA != "gpu" || mc.PlatformB != "fpga" {
		t.Errorf("mc echoes: %+v", mc)
	}
	code, _, data = postRaw(t, hts.URL+"/v1/evaluate",
		`{"platforms":[{"domain":"DNN","kind":"gpu"},{"domain":"DNN","kind":"asic"}],`+
			`"workload":{"napps":1,"lifetime_years":1,"volume":10}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("gpu at evaluate: %d %s", code, data)
	}
	if e := decodeErr(t, data); e.Code != "invalid_request" || !strings.Contains(e.Message, "/v1/compare") {
		t.Errorf("gpu-at-evaluate error: %+v", e)
	}
}

func TestSweepAndMonteCarlo(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := postRaw(t, hts.URL+"/v1/sweep", `{"domain":"Crypto","axis":"lifetime","points":5}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, data)
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 5 || sw.Domain != "Crypto" {
		t.Errorf("sweep response: %+v", sw)
	}
	code, _, data = postRaw(t, hts.URL+"/v1/mc", `{"samples":100,"seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("mc: %d %s", code, data)
	}
	var mc api.MonteCarloResponse
	if err := json.Unmarshal(data, &mc); err != nil {
		t.Fatal(err)
	}
	if mc.Samples != 100 || mc.Seed != 3 || len(mc.Tornado) == 0 {
		t.Errorf("mc response: %+v", mc)
	}
	_, hdr, _ := postRaw(t, hts.URL+"/v1/mc", `{"seed":3,"samples":100}`)
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeated mc: X-Cache=%q, want hit", hdr.Get("X-Cache"))
	}
}

// TestCompareEndpoint covers the /v1/compare route: the response
// matches the shared compute byte-for-byte, a repeat request is a
// result-cache hit (normalized keying: an empty body and spelled-out
// defaults share one entry), and /metrics carries the per-endpoint
// request counter.
func TestCompareEndpoint(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, hdr, data := postRaw(t, hts.URL+"/v1/compare", `{}`)
	if code != http.StatusOK {
		t.Fatalf("compare: %d %s", code, data)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("first compare should miss, got %q", hdr.Get("X-Cache"))
	}
	want, err := api.NewEvaluator(4).RunCompare(context.Background(), api.CompareRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if string(data) != buf.String() {
		t.Errorf("server compare differs from shared compute:\n%s\nvs\n%s", data, buf.String())
	}
	// Spelled-out defaults normalize onto the same cache entry.
	code, hdr, data2 := postRaw(t, hts.URL+"/v1/compare",
		`{"domain":"DNN","napps":5,"lifetime_years":2,"volume":1e6,"max_apps":12}`)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("normalized repeat should hit: %d %q", code, hdr.Get("X-Cache"))
	}
	if string(data2) != string(data) {
		t.Error("cache hit returned a different document")
	}
	var resp api.CompareResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) != 4 || resp.Winner == "" || len(resp.Frontier) != 12 {
		t.Errorf("compare response shape: %+v", resp)
	}
	// Error envelope for bad selectors.
	code, _, data = postRaw(t, hts.URL+"/v1/compare", `{"platforms":["fpga","npu"]}`)
	if code != http.StatusBadRequest || decodeErr(t, data).Code != "invalid_request" {
		t.Errorf("bad selector: %d %s", code, data)
	}
	// The per-endpoint request counter counts all three requests.
	_, _, metrics := get(t, hts.URL+"/metrics")
	if !strings.Contains(string(metrics), `greenfpga_requests_total{endpoint="/v1/compare"} 3`) {
		t.Errorf("metrics missing the /v1/compare counter:\n%s", metrics)
	}
}

// TestTimelineEndpoint covers the /v1/timeline route: the response
// matches the shared compute byte-for-byte, the generator shorthand
// and its spelled-out deployment list share one cache entry, and
// /metrics carries the per-endpoint counter.
func TestTimelineEndpoint(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, hdr, data := postRaw(t, hts.URL+"/v1/timeline", `{}`)
	if code != http.StatusOK {
		t.Fatalf("timeline: %d %s", code, data)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("first timeline should miss, got %q", hdr.Get("X-Cache"))
	}
	want, err := api.NewEvaluator(4).RunTimeline(context.Background(), api.TimelineRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if string(data) != buf.String() {
		t.Errorf("server timeline differs from shared compute:\n%s\nvs\n%s", data, buf.String())
	}
	// The explicit-deployment spelling of the default staggered
	// timeline normalizes onto the same cache entry.
	explicit := `{"domain":"DNN","sizing":"shared","deployments":[` +
		`{"name":"app1","start_years":0,"lifetime_years":2,"volume":1e6},` +
		`{"name":"app2","start_years":0.5,"lifetime_years":2,"volume":1e6},` +
		`{"name":"app3","start_years":1,"lifetime_years":2,"volume":1e6},` +
		`{"name":"app4","start_years":1.5,"lifetime_years":2,"volume":1e6},` +
		`{"name":"app5","start_years":2,"lifetime_years":2,"volume":1e6}]}`
	code, hdr, data2 := postRaw(t, hts.URL+"/v1/timeline", explicit)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("normalized repeat should hit: %d %q", code, hdr.Get("X-Cache"))
	}
	if string(data2) != string(data) {
		t.Error("cache hit returned a different document")
	}
	var resp api.TimelineResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) != 4 || resp.Winner == "" || resp.SpanYears != 4 || resp.PeakConcurrent != 4 {
		t.Errorf("timeline response shape: %+v", resp)
	}
	// Error envelope for invalid requests.
	code, _, data = postRaw(t, hts.URL+"/v1/timeline", `{"sizing":"elastic"}`)
	if code != http.StatusBadRequest || decodeErr(t, data).Code != "invalid_request" {
		t.Errorf("bad sizing: %d %s", code, data)
	}
	code, _, data = postRaw(t, hts.URL+"/v1/timeline", `{"deployments":[{"lifetime_years":-1,"volume":1}]}`)
	if code != http.StatusBadRequest || decodeErr(t, data).Code != "invalid_request" {
		t.Errorf("bad deployment: %d %s", code, data)
	}
	// Unknown fields are rejected like every other endpoint.
	code, _, data = postRaw(t, hts.URL+"/v1/timeline", `{"bogus":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: %d %s", code, data)
	}
	_, _, metrics := get(t, hts.URL+"/metrics")
	if !strings.Contains(string(metrics), `greenfpga_requests_total{endpoint="/v1/timeline"} 5`) {
		t.Errorf("metrics missing the /v1/timeline counter:\n%s", metrics)
	}
}

// TestCrossoverPlatformSelectors covers the selector extension of the
// crossover endpoint end to end.
func TestCrossoverPlatformSelectors(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := postRaw(t, hts.URL+"/v1/crossover", `{"platform_a":"fpga","platform_b":"gpu"}`)
	if code != http.StatusOK {
		t.Fatalf("crossover with selectors: %d %s", code, data)
	}
	var resp api.CrossoverResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PlatformA != "fpga" || resp.PlatformB != "gpu" || !resp.A2FNumApps.Found {
		t.Errorf("selector crossover: %+v", resp)
	}
	code, _, data = postRaw(t, hts.URL+"/v1/crossover", `{"platform_a":"fpga"}`)
	if code != http.StatusBadRequest || decodeErr(t, data).Code != "invalid_request" {
		t.Errorf("half-set selectors: %d %s", code, data)
	}
}

func TestCatalogEndpoints(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := get(t, hts.URL+"/v1/devices")
	if code != http.StatusOK {
		t.Fatalf("devices: %d", code)
	}
	var buf bytes.Buffer
	if err := api.WriteJSON(&buf, api.Devices()); err != nil {
		t.Fatal(err)
	}
	if string(data) != buf.String() {
		t.Error("/v1/devices differs from api.Devices()")
	}
	code, _, data = get(t, hts.URL+"/v1/domains")
	if code != http.StatusOK || !strings.Contains(string(data), "ImgProc") {
		t.Errorf("domains: %d %s", code, data)
	}
	code, _, data = get(t, hts.URL+"/v1/experiments")
	if code != http.StatusOK || !strings.Contains(string(data), "table1") {
		t.Errorf("experiments: %d %s", code, data)
	}
}

func TestExperimentArtifact(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, hdr, data := get(t, hts.URL+"/v1/experiments/table3?format=text")
	if code != http.StatusOK || !strings.Contains(string(data), "IndustryASIC1") {
		t.Fatalf("table3 text: %d %s", code, data)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("first artifact fetch: X-Cache=%q", hdr.Get("X-Cache"))
	}
	_, hdr, again := get(t, hts.URL+"/v1/experiments/table3?format=text")
	if hdr.Get("X-Cache") != "hit" || !bytes.Equal(data, again) {
		t.Errorf("second artifact fetch: X-Cache=%q, equal=%v", hdr.Get("X-Cache"), bytes.Equal(data, again))
	}
	code, _, data = get(t, hts.URL+"/v1/experiments/table3")
	if code != http.StatusOK {
		t.Fatalf("table3 json: %d", code)
	}
	var res api.ExperimentResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "table3" || len(res.Tables) == 0 {
		t.Errorf("json artifact: %+v", res)
	}
	code, _, data = get(t, hts.URL+"/v1/experiments/fig99")
	if code != http.StatusNotFound {
		t.Errorf("unknown experiment: %d %s", code, data)
	} else if e := decodeErr(t, data); e.Code != "not_found" {
		t.Errorf("unknown experiment code %q", e.Code)
	}
	code, _, _ = get(t, hts.URL+"/v1/experiments/table3?format=pdf")
	if code != http.StatusBadRequest {
		t.Errorf("bad format: %d", code)
	}
	// Artifact traffic must not touch the result-cache counters.
	if hits := metricValue(t, hts, "greenfpga_result_cache_hits_total"); hits != 0 {
		t.Errorf("artifact fetches leaked into result-cache hits: %d", hits)
	}
	if hits := metricValue(t, hts, "greenfpga_artifact_cache_hits_total"); hits != 1 {
		t.Errorf("artifact cache hits %d, want 1", hits)
	}
}

func TestSweepEmptyRangeRejected(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	code, _, data := postRaw(t, hts.URL+"/v1/sweep", `{"axis":"napps","from":10,"to":3}`)
	if code != http.StatusBadRequest {
		t.Fatalf("inverted range: %d %s", code, data)
	}
	if e := decodeErr(t, data); e.Code != "invalid_request" {
		t.Errorf("inverted range code %q", e.Code)
	}
}

// TestConcurrentRequests hammers the compute endpoints through a
// 2-slot limiter; every response must be a 200 and identical to its
// siblings (run under -race in CI).
func TestConcurrentRequests(t *testing.T) {
	_, hts := newTestServer(t, Options{MaxConcurrent: 2})
	const n = 16
	var wg sync.WaitGroup
	evalBodies := make([][]byte, n)
	crossBodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, data := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
			if code == http.StatusOK {
				evalBodies[i] = data
			}
			code, _, data = postRaw(t, hts.URL+"/v1/crossover", `{"domain":"ImgProc"}`)
			if code == http.StatusOK {
				crossBodies[i] = data
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if evalBodies[i] == nil || !bytes.Equal(evalBodies[0], evalBodies[i]) {
			t.Fatalf("evaluate %d diverged or failed", i)
		}
		if crossBodies[i] == nil || !bytes.Equal(crossBodies[0], crossBodies[i]) {
			t.Fatalf("crossover %d diverged or failed", i)
		}
	}
}

// TestGracefulShutdown starts a real listener, verifies it serves,
// shuts down, and verifies in-flight drain plus refusal of new work.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	code, _, _ := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", code)
	}

	// An in-flight request must complete during the drain.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/mc", "application/json",
			strings.NewReader(`{"samples":20000,"seed":9,"napps":100}`))
		if err != nil {
			inflight <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		inflight <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-s.Done(); err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request during drain: %d, want 200", code)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("request after shutdown must fail")
	}
}
