package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"greenfpga/api"
)

// endpoint is one synchronous compute endpoint, spelled through the
// api layer's public functions exactly as the server's handler calls
// them: strict decode into the typed request, Normalized, then the
// Evaluator method. The traced replay and the correctness gates use it
// to reproduce a served response in-process.
type endpoint struct {
	name, path string
	decode     func(body []byte) (any, error)
	normalize  func(req any) any
	run        func(ctx context.Context, ev *api.Evaluator, norm any) (any, error)
}

// mkEndpoint builds an endpoint for request type R.
func mkEndpoint[R any](name string, norm func(R) R,
	run func(ev *api.Evaluator, ctx context.Context, r R) (any, error)) *endpoint {
	return &endpoint{
		name: name,
		path: "/v1/" + name,
		decode: func(body []byte) (any, error) {
			var r R
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				return nil, fmt.Errorf("decode %s body: %w", name, err)
			}
			return r, nil
		},
		normalize: func(req any) any { return norm(req.(R)) },
		run: func(ctx context.Context, ev *api.Evaluator, n any) (any, error) {
			return run(ev, ctx, n.(R))
		},
	}
}

// endpointOrder lists the seven compute endpoints.
var endpointOrder = []string{"evaluate", "compare", "crossover", "timeline", "sweep", "mc", "fleet"}

var endpoints = map[string]*endpoint{
	"evaluate": mkEndpoint("evaluate", api.EvaluateRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.EvaluateRequest) (any, error) {
			return ev.Evaluate(ctx, &r)
		}),
	"compare": mkEndpoint("compare", api.CompareRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.CompareRequest) (any, error) {
			return ev.RunCompare(ctx, r)
		}),
	"crossover": mkEndpoint("crossover", api.CrossoverRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.CrossoverRequest) (any, error) {
			return ev.RunCrossover(ctx, r)
		}),
	"timeline": mkEndpoint("timeline", api.TimelineRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.TimelineRequest) (any, error) {
			return ev.RunTimeline(ctx, r)
		}),
	"sweep": mkEndpoint("sweep", api.SweepRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.SweepRequest) (any, error) {
			return ev.RunSweep(ctx, r)
		}),
	"mc": mkEndpoint("mc", api.MonteCarloRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.MonteCarloRequest) (any, error) {
			return ev.RunMonteCarlo(ctx, r)
		}),
	"fleet": mkEndpoint("fleet", api.FleetRequest.Normalized,
		func(ev *api.Evaluator, ctx context.Context, r api.FleetRequest) (any, error) {
			return ev.RunFleet(ctx, r)
		}),
}

// op is one closed-loop operation: a synchronous POST of body to
// ep.path, or — when job is set — the durable-jobs sequence over the
// same body (submit as a job, poll, fetch, re-POST synchronously).
type op struct {
	ep   *endpoint
	body []byte
	job  bool
}

// workload is one seeded traffic mix. op(n) is a pure function of
// (seed, n): the same seed always yields the same request sequence,
// and clients pull indices from one shared counter, so a request's
// type never depends on which client sends it.
//
// Types are dealt from a seeded deck: each consecutive block of
// len(mix) operations is a seeded permutation of the mix, so the order
// varies with the seed while every window holds the mix's exact
// proportions (i.i.d. draws would let the share of the costliest type
// — and with it throughput — wander by several percent per seed).
type workload struct {
	name string
	seed uint64
	// store runs the server with -store over a seed-generated history.
	store bool
	// warm is the number of operations issued before the timed window.
	warm uint64
	// gateEvery selects the timed operations whose responses are
	// recomputed in-process (index % gateEvery == 0); 0 disables it.
	gateEvery uint64
	op        func(n uint64) op
	// prime are issued once while the server is set up; they are part
	// of set-up time.
	prime []op
}

// Workload shapes (see BENCHMARK.json for why each was chosen).
const (
	// coldMCDraws is the Monte-Carlo draw count of a cold-study mc
	// request (the loadgen default shape).
	coldMCDraws = 500
	// jobSweepPoints spans three 1024-point job chunks.
	jobSweepPoints = 2500
	// primeSalt offsets the salts of priming requests so they never
	// share a content address with a timed request.
	primeSalt = 1 << 30
)

// workloadNames are the timed workloads. The durable-jobs operations
// (durableJobs) are not one: their latency follows the fsync stalls of
// whatever else shares the disk, so they run only in the traced run's
// jobs phase.
var workloadNames = []string{"hit-floor", "cold-study"}

// newWorkload builds the named workload for seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "hit-floor":
		return hitFloor(seed), nil
	case "cold-study":
		return coldStudy(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// rng returns the generator of stream n under seed.
func rng(seed, n uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, n))
}

// deal returns the mix entry of operation n: position n%len(mix) of
// block n/len(mix)'s seeded permutation.
func deal(seed, n uint64, mix []string) string {
	k := uint64(len(mix))
	return mix[rng(seed, n/k).Perm(len(mix))[n%k]]
}

// saltBase is the seed's salt offset: salts of one run are
// saltBase+n, distinct per operation and different across seeds.
func saltBase(seed uint64) uint64 {
	return rng(seed, ^uint64(0)).Uint64N(1 << 24)
}

// mustJSON encodes a request the way a client would.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request literals always encode
	}
	return b
}

// fixedBodies are the seven fixed hit-floor requests (the loadgen
// shapes), one per compute endpoint.
func fixedBodies() map[string][]byte {
	return map[string][]byte{
		"evaluate": mustJSON(api.EvaluateRequest{
			Platforms: []api.PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Domain: "DNN", Kind: "asic"}},
			Workload:  &api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6},
		}),
		"compare":   mustJSON(api.CompareRequest{Domain: "DNN"}),
		"crossover": mustJSON(api.CrossoverRequest{Domain: "DNN"}),
		"timeline":  mustJSON(api.TimelineRequest{Domain: "DNN"}),
		"sweep":     mustJSON(api.SweepRequest{Domain: "DNN", Axis: "napps"}),
		"mc":        mustJSON(api.MonteCarloRequest{Domain: "DNN", Samples: coldMCDraws}),
		"fleet":     mustJSON(api.FleetRequest{Domain: "DNN"}),
	}
}

// hitFloor sends the seven fixed bodies in a seeded uniform mix; after
// priming, every request is a result-cache hit.
func hitFloor(seed uint64) *workload {
	bodies := fixedBodies()
	ops := map[string]op{}
	var prime []op
	for _, name := range endpointOrder {
		ops[name] = op{ep: endpoints[name], body: bodies[name]}
		prime = append(prime, ops[name])
	}
	return &workload{
		name: "hit-floor", seed: seed, warm: 20000,
		op:    func(n uint64) op { return ops[deal(seed, n, endpointOrder)] },
		prime: prime,
	}
}

// coldMix is the cold-study endpoint mix: evaluate:4 and one each of
// compare, sweep, fleet and mc.
var coldMix = []string{"evaluate", "evaluate", "evaluate", "evaluate", "compare", "sweep", "fleet", "mc"}

// coldBody salts one cold-study request with salt k: every k is a
// distinct content address, with compute cost independent of k.
func coldBody(name string, k uint64) []byte {
	vol := 1e6 + float64(k)/1000
	switch name {
	case "evaluate":
		return mustJSON(api.EvaluateRequest{
			Name:      fmt.Sprintf("cold-%d", k),
			Platforms: []api.PlatformSpec{{Domain: "DNN", Kind: "fpga"}, {Domain: "DNN", Kind: "asic"}},
			Workload:  &api.WorkloadSpec{NApps: 5, LifetimeYears: 2, Volume: 1e6},
		})
	case "compare":
		return mustJSON(api.CompareRequest{Domain: "DNN", Volume: vol})
	case "sweep":
		return mustJSON(api.SweepRequest{Domain: "DNN", Axis: "napps", Workload: &api.WorkloadSpec{Volume: vol}})
	case "fleet":
		return mustJSON(api.FleetRequest{Domain: "DNN", Workload: &api.WorkloadSpec{Volume: vol}})
	case "mc":
		return mustJSON(api.MonteCarloRequest{Domain: "DNN", Samples: coldMCDraws, Seed: int64(k) + 1})
	}
	panic("no cold body for " + name)
}

// coldStudy gives every request a fresh content address, so each one
// misses the result cache and computes.
func coldStudy(seed uint64) *workload {
	base := saltBase(seed)
	var prime []op
	for i, name := range []string{"evaluate", "compare", "sweep", "fleet", "mc"} {
		prime = append(prime, op{ep: endpoints[name], body: coldBody(name, base+primeSalt+uint64(i))})
	}
	return &workload{
		name: "cold-study", seed: seed, warm: 1280, gateEvery: 32,
		op: func(n uint64) op {
			name := deal(seed, n, coldMix)
			return op{ep: endpoints[name], body: coldBody(name, base+n)}
		},
		prime: prime,
	}
}

// jobBody is one durable-jobs sweep: jobSweepPoints lifetime points
// (three job chunks) at a salted off-axis volume.
func jobBody(k uint64) []byte {
	return mustJSON(api.SweepRequest{
		Domain: "DNN", Axis: "lifetime", From: 0.2, To: 2.5, Points: jobSweepPoints,
		Workload: &api.WorkloadSpec{Volume: 1e6 + float64(k)/1000},
	})
}

// durableJobs runs every operation as a resumable job against the
// durable tier, then re-reads the result through the sync endpoint: the
// traced run's jobs phase and its replay.
func durableJobs(seed uint64) *workload {
	base := saltBase(seed)
	return &workload{
		name: "durable-jobs", seed: seed, store: true, warm: 100,
		op: func(n uint64) op {
			return op{ep: endpoints["sweep"], body: jobBody(base + n), job: true}
		},
		prime: []op{{ep: endpoints["sweep"], body: jobBody(base + primeSalt), job: true}},
	}
}
