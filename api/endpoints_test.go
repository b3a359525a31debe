package api

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// testEval is the Evaluator the package's tests run requests through.
var testEval = NewEvaluator(64)

// endpointBodies is one representative request per compute endpoint,
// sized so the chunked endpoints span several chunks (9000 draws are 3
// MC chunks, 3000 points are 3 sweep chunks, the default fleet is one
// chunk per registry region).
var endpointBodies = map[string]string{
	"evaluate":  `{"platforms": [{"domain": "DNN", "kind": "fpga"}], "workload": {"napps": 5, "lifetime_years": 2, "volume": 1e6}}`,
	"compare":   `{"domain": "Crypto"}`,
	"crossover": `{"domain": "DNN", "lifetime_years": 2}`,
	"timeline":  `{"domain": "DNN", "napps": 4, "interval_years": 0.5, "chip_lifetime_years": 8}`,
	"sweep":     `{"domain": "DNN", "axis": "lifetime", "from": 1, "to": 10, "points": 3000}`,
	"mc":        `{"domain": "DNN", "samples": 9000, "seed": 7}`,
	"fleet":     `{"domain": "DNN", "platforms": ["fpga", "asic", "gpu"]}`,
}

// forEachEndpoint runs f as a subtest per table entry with that
// endpoint's representative body, failing for an entry without one —
// so a newly registered endpoint cannot skip the contract tests.
func forEachEndpoint(t *testing.T, f func(t *testing.T, ep *Endpoint, body string)) {
	t.Helper()
	for _, ep := range Endpoints {
		body, ok := endpointBodies[ep.Name]
		if !ok {
			t.Errorf("endpoint %s has no representative body in endpointBodies", ep.Name)
			continue
		}
		t.Run(ep.Name, func(t *testing.T) { f(t, ep, body) })
	}
}

// syncBytes answers body the way the server does: strict decode,
// normalization, the entry's Run, the canonical encoding.
func syncBytes(ctx context.Context, ep *Endpoint, body string) ([]byte, error) {
	req := ep.NewRequest()
	if err := DecodeStrict(strings.NewReader(body), req); err != nil {
		return nil, err
	}
	v, err := ep.Run(ctx, testEval, ep.Normalized(req))
	if err != nil {
		return nil, err
	}
	return EncodeJSON(v)
}

// TestEndpointTable pins the table's shape: unique names and paths,
// lookups by either spelling, and an error listing every endpoint.
func TestEndpointTable(t *testing.T) {
	seen := map[string]bool{}
	for _, ep := range Endpoints {
		if seen[ep.Name] || seen[ep.Path] {
			t.Errorf("duplicate registration %s %s", ep.Name, ep.Path)
		}
		seen[ep.Name], seen[ep.Path] = true, true
		if ep.Path != "/v1/"+ep.Name {
			t.Errorf("endpoint %s routes at %s", ep.Name, ep.Path)
		}
		for _, spelling := range []string{ep.Name, ep.Path} {
			if got, err := CanonicalEndpoint(spelling); err != nil || got != ep.Path {
				t.Errorf("CanonicalEndpoint(%q) = %q, %v; want %q", spelling, got, err, ep.Path)
			}
		}
	}
	_, err := CanonicalEndpoint("mcc")
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != "invalid_request" {
		t.Fatalf("unknown endpoint: err = %v, want an invalid_request *Error", err)
	}
	for _, name := range EndpointNames() {
		if !strings.Contains(ae.Message, name) {
			t.Errorf("unknown-endpoint message %q does not list %s", ae.Message, name)
		}
	}
}
