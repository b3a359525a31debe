package api

import (
	"context"
	"fmt"
	"strings"
)

// Endpoint is one compute endpoint's registration: its route, request
// decoding and normalization, Evaluator run, cache admission and — for
// the studies worth checkpointing — chunk plan. The server routes one
// handler per entry, NewStudy decomposes job submissions through it,
// and the CLI's endpoint lists read its names.
type Endpoint struct {
	// Name is the short spelling ("mc"); Path is the route ("/v1/mc").
	Name, Path string
	// NewRequest returns a pointer to a zero typed request to decode
	// into; Normalized maps it to the canonical value CanonicalKey
	// addresses and Run computes.
	NewRequest func() any
	Normalized func(req any) any
	Run        func(ctx context.Context, e *Evaluator, norm any) (any, error)
	// Admit, when non-nil, gates a response's admission to the result
	// cache and the durable store beneath it.
	Admit func(resp any) bool
	// plan, when non-nil, splits a normalized request into the chunks
	// of study s; other endpoints run as single-chunk studies.
	plan func(ctx context.Context, e *Evaluator, norm any, s *Study) error
}

// maxCachedSweepPoints bounds the sweep responses admitted to the
// result cache; larger ones are served but recomputed per request.
const maxCachedSweepPoints = 10_000

// Endpoints is the compute endpoint table, in documentation order.
var Endpoints = []*Endpoint{
	endpoint("evaluate", "/v1/evaluate", func(e *Evaluator, ctx context.Context, r EvaluateRequest) (*EvaluateResponse, error) {
		return e.Evaluate(ctx, &r)
	}, nil, nil),
	endpoint("compare", "/v1/compare", (*Evaluator).RunCompare, nil, nil),
	endpoint("crossover", "/v1/crossover", (*Evaluator).RunCrossover, nil, nil),
	endpoint("timeline", "/v1/timeline", (*Evaluator).RunTimeline, nil, nil),
	endpoint("sweep", "/v1/sweep", (*Evaluator).RunSweep, (*Evaluator).planSweep,
		// Admit only plot-sized sweeps: a full LRU of MaxSweepPoints
		// responses would pin gigabytes. Oversized sweeps recompute,
		// which the compiled platform set makes cheap.
		func(resp *SweepResponse) bool { return len(resp.Points) <= maxCachedSweepPoints }),
	endpoint("mc", "/v1/mc", (*Evaluator).RunMonteCarlo, (*Evaluator).planMonteCarlo, nil),
	endpoint("fleet", "/v1/fleet", (*Evaluator).RunFleet, (*Evaluator).planFleet, nil),
}

// normalizer is a request type with a canonical form.
type normalizer[R any] interface{ Normalized() R }

// endpoint registers a typed endpoint: its run and, optionally, the
// chunk plan that run executes in-process and an admission rule.
func endpoint[Req normalizer[Req], Resp any](name, path string,
	run func(*Evaluator, context.Context, Req) (Resp, error),
	plan func(*Evaluator, context.Context, Req) (*chunkPlan[Resp], error),
	admit func(Resp) bool) *Endpoint {
	ep := &Endpoint{
		Name:       name,
		Path:       path,
		NewRequest: func() any { return new(Req) },
		Normalized: func(req any) any { return (*req.(*Req)).Normalized() },
		Run: func(ctx context.Context, e *Evaluator, norm any) (any, error) {
			return run(e, ctx, norm.(Req))
		},
	}
	if plan != nil {
		ep.plan = func(ctx context.Context, e *Evaluator, norm any, s *Study) error {
			p, err := plan(e, ctx, norm.(Req))
			if err != nil {
				return err
			}
			p.into(name, s)
			return nil
		}
	}
	if admit != nil {
		ep.Admit = func(resp any) bool { return admit(resp.(Resp)) }
	}
	return ep
}

// LookupEndpoint finds the table entry for an endpoint spelling ("mc"
// or "/v1/mc").
func LookupEndpoint(name string) (*Endpoint, error) {
	for _, ep := range Endpoints {
		if name == ep.Name || name == ep.Path {
			return ep, nil
		}
	}
	return nil, &Error{Code: "invalid_request", Message: fmt.Sprintf(
		"unknown job endpoint %q (%s)", name, strings.Join(EndpointNames(), ", "))}
}

// CanonicalEndpoint maps an endpoint spelling ("mc", "/v1/mc") to its
// canonical path, or errors for endpoints that cannot run as jobs.
func CanonicalEndpoint(name string) (string, error) {
	ep, err := LookupEndpoint(name)
	if err != nil {
		return "", err
	}
	return ep.Path, nil
}

// EndpointNames lists the compute endpoints' short names in table order.
func EndpointNames() []string {
	names := make([]string, len(Endpoints))
	for i, ep := range Endpoints {
		names[i] = ep.Name
	}
	return names
}
