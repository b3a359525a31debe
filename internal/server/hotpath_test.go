package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"greenfpga/api"
)

// computeBodies is one representative request per compute endpoint —
// the byte-identity matrix the hot path must hold for. Every entry of
// the api endpoint table must have one.
func computeBodies(t *testing.T) map[string]string {
	t.Helper()
	bodies := make(map[string]string)
	for path, v := range map[string]any{
		"/v1/evaluate":  evaluateBody(),
		"/v1/compare":   api.CompareRequest{Domain: "DNN"},
		"/v1/timeline":  api.TimelineRequest{Domain: "DNN"},
		"/v1/crossover": api.CrossoverRequest{Domain: "DNN"},
		"/v1/sweep":     api.SweepRequest{Domain: "DNN", Axis: "napps"},
		"/v1/mc":        api.MonteCarloRequest{Domain: "DNN", Samples: 200, Seed: 7},
		"/v1/fleet":     api.FleetRequest{Domain: "DNN"},
	} {
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, v); err != nil {
			t.Fatal(err)
		}
		bodies[path] = buf.String()
	}
	for _, ep := range api.Endpoints {
		if _, ok := bodies[ep.Path]; !ok {
			t.Fatalf("endpoint %s has no representative body in computeBodies", ep.Path)
		}
	}
	return bodies
}

// TestHitBytesIdentical sends each compute endpoint the same request
// twice: the miss computes and encodes, the hit replays stored bytes.
// The two responses must be byte-identical — the invariant that makes
// the encoded-byte cache invisible to clients.
func TestHitBytesIdentical(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	for path, body := range computeBodies(t) {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			code, h1, miss := postRaw(t, hts.URL+path, body)
			if code != http.StatusOK {
				t.Fatalf("miss: %d %s", code, miss)
			}
			if got := h1.Get("X-Cache"); got != "miss" {
				t.Errorf("first response X-Cache = %q, want miss", got)
			}
			code, h2, hit := postRaw(t, hts.URL+path, body)
			if code != http.StatusOK {
				t.Fatalf("hit: %d %s", code, hit)
			}
			if got := h2.Get("X-Cache"); got != "hit" {
				t.Errorf("second response X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(miss, hit) {
				t.Errorf("hit bytes differ from miss bytes:\n%s\nvs\n%s", miss, hit)
			}
			if got := h2.Get("Content-Length"); got != strconv.Itoa(len(hit)) {
				t.Errorf("hit Content-Length = %q, body is %d bytes", got, len(hit))
			}
		})
	}
}

// TestHitBytesMatchGolden pins the cached bytes to the shared compute
// path's canonical encoding: what the cache replays is exactly what
// api.EncodeJSON produces for the evaluated envelope (same compact
// layout, EscapeHTML off, trailing newline) — so CLI output and
// server responses stay comparable with cmp.
func TestHitBytesMatchGolden(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	body := computeBodies(t)["/v1/evaluate"]
	postRaw(t, hts.URL+"/v1/evaluate", body) // warm
	code, _, hit := postRaw(t, hts.URL+"/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("hit: %d %s", code, hit)
	}
	norm := evaluateBody().Normalized()
	want, err := api.NewEvaluator(4).Evaluate(context.Background(), &norm)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := api.EncodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, golden) {
		t.Errorf("cached bytes differ from EncodeJSON golden:\n%s\nvs\n%s", hit, golden)
	}
	if len(golden) == 0 || golden[len(golden)-1] != '\n' {
		t.Errorf("golden bytes missing trailing newline: %q", golden)
	}
}

// TestHitPathAllocs bounds per-request heap allocations on the
// cache-hit path, the floor the zero-copy work bought: a hit must
// never touch encoding/json, so a regression that re-encodes (or
// re-buffers) shows up here as a step change long before it shows in
// a benchmark. The budget includes the test's own per-run request and
// recorder construction: the path measures 46 allocations (86 before
// the hit lane answered repeated bodies without decoding), and the
// budget leaves ~10% over that.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := []byte(computeBodies(t)["/v1/evaluate"])
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK { // warm: the one real encode
		t.Fatalf("warm request: %d %s", rec.Code, rec.Body.Bytes())
	}
	if rec := do(); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request not a hit: X-Cache=%q", rec.Header().Get("X-Cache"))
	}
	const budget = 51
	avg := testing.AllocsPerRun(200, func() { do() })
	if avg > budget {
		t.Errorf("cache-hit request allocates %.1f objects/run, budget %d", avg, budget)
	}
	t.Logf("cache-hit path: %.1f allocs/run (budget %d)", avg, budget)
}
