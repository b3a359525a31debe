package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"greenfpga/api"
)

// checker returns the per-response gate of workload w. refs holds the
// primed reference bodies of hit-floor, by endpoint name.
func checker(w *workload, refs map[string][]byte) func(o op, r opResult) error {
	switch w.name {
	case "hit-floor":
		return func(o op, r opResult) error {
			if r.cache != "hit" {
				return fmt.Errorf("X-Cache %q, want hit", r.cache)
			}
			if !bytes.Equal(r.body, refs[o.ep.name]) {
				return fmt.Errorf("body differs from the primed reference")
			}
			return nil
		}
	case "cold-study":
		return func(_ op, r opResult) error {
			if r.cache != "miss" {
				return fmt.Errorf("X-Cache %q, want miss", r.cache)
			}
			return nil
		}
	}
	// durable-jobs: runJob already compared job and sync bytes.
	return func(op, opResult) error { return nil }
}

// recompute evaluates o in-process through the api layer — decode,
// Normalized, the Evaluator method, EncodeJSON — returning the bytes
// the server must have answered.
func recompute(ctx context.Context, ev *api.Evaluator, o op) ([]byte, error) {
	req, err := o.ep.decode(o.body)
	if err != nil {
		return nil, err
	}
	out, err := o.ep.run(ctx, ev, o.ep.normalize(req))
	if err != nil {
		return nil, err
	}
	return api.EncodeJSON(out)
}

// gateKept recomputes the kept (seeded-sample) responses in-process
// and returns how many differ from the server's bytes.
func gateKept(w *workload, kept map[uint64][]byte) (int, error) {
	idx := make([]uint64, 0, len(kept))
	for n := range kept {
		idx = append(idx, n)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	ev := api.NewEvaluator(256)
	bad := 0
	var first error
	for _, n := range idx {
		want, err := recompute(context.Background(), ev, w.op(n))
		if err == nil && !bytes.Equal(want, kept[n]) {
			err = fmt.Errorf("op %d: server bytes differ from the in-process recompute", n)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// Paper headline (DNN, T=2y, V=1e6): A2F at 6 applications, F2A at
// ≈1.59 years and ≈661k units, FPGA:ASIC ratio ≈0.974 at 6 apps.
const (
	headlineA2F      = 6
	headlineF2AYears = 1.59
	headlineF2AUnits = 661e3
	headlineRatio    = 0.974
)

// near reports |got-want| <= tol*|want|.
func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

// gateHeadline asks the running server for the paper's headline
// numbers and checks them.
func gateHeadline(c *client) error {
	r, err := c.do(http.MethodPost, "/v1/crossover",
		mustJSON(api.CrossoverRequest{Domain: "DNN", LifetimeYears: 2, Volume: 1e6}), nil)
	if err != nil {
		return err
	}
	var x api.CrossoverResponse
	if err := json.Unmarshal(r.body, &x); err != nil {
		return fmt.Errorf("crossover reply (status %d): %w", r.status, err)
	}
	if !x.A2FNumApps.Found || x.A2FNumApps.Value != headlineA2F ||
		!x.F2ALifetimeYears.Found || !near(x.F2ALifetimeYears.Value, headlineF2AYears, 0.005) ||
		!x.F2AVolume.Found || !near(x.F2AVolume.Value, headlineF2AUnits, 0.005) {
		return fmt.Errorf("headline crossover moved: %+v", x)
	}
	r, err = c.do(http.MethodPost, "/v1/evaluate", mustJSON(api.EvaluateRequest{
		Platforms: []api.PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Domain: "DNN", Kind: "asic"}},
		Workload:  &api.WorkloadSpec{NApps: headlineA2F, LifetimeYears: 2, Volume: 1e6},
	}), nil)
	if err != nil {
		return err
	}
	var e api.EvaluateResponse
	if err := json.Unmarshal(r.body, &e); err != nil {
		return fmt.Errorf("evaluate reply (status %d): %w", r.status, err)
	}
	if e.Ratio == nil || !near(*e.Ratio, headlineRatio, 0.001) {
		return fmt.Errorf("headline ratio at %d apps moved: %v", headlineA2F, e.Ratio)
	}
	return nil
}
