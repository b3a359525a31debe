package api

import (
	"context"
	"errors"
	"testing"
	"time"

	"greenfpga/internal/config"
)

// TestCanceledContextStopsEveryEntryPoint checks each endpoint's
// Evaluator run observes an already-dead context instead of computing.
func TestCanceledContextStopsEveryEntryPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	forEachEndpoint(t, func(t *testing.T, ep *Endpoint, body string) {
		if _, err := syncBytes(ctx, ep, body); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with canceled ctx: err = %v, want context.Canceled", ep.Name, err)
		}
	})
	if _, err := testEval.Evaluate(ctx, &EvaluateRequest{Scenario: config.Example()}); !errors.Is(err, context.Canceled) {
		t.Errorf("legacy-scenario Evaluate with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestDeadlineStopsLongMonteCarlo checks an expired deadline actually
// halts the draw loop: the largest study /v1/mc admits (10^6 draws of
// 1000 applications) takes about 5.4 CPU-seconds uncancelled on a
// 2.1 GHz Xeon (2.8-3.1 s on two vCPUs), so its four workers need at
// least 1.35 s even on four such vCPUs, over five times the 250 ms
// bound, while a cancelled study returns context.DeadlineExceeded
// about 10 ms after its 50 ms deadline, with or without the race
// detector.
func TestDeadlineStopsLongMonteCarlo(t *testing.T) {
	e := NewEvaluator(4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunMonteCarlo(ctx, MonteCarloRequest{Samples: MaxMonteCarloSamples, Seed: 1, NApps: MaxMonteCarloApps}.Normalized())
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 250*time.Millisecond {
		t.Errorf("cancellation observed after %v; the workers kept drawing", took)
	}
}

// TestToErrorMapsContextErrors checks the envelope mapping the server
// relies on for 504 and 499 responses.
func TestToErrorMapsContextErrors(t *testing.T) {
	if e := ToError(context.DeadlineExceeded); e.Code != "deadline_exceeded" {
		t.Errorf("DeadlineExceeded maps to %q, want deadline_exceeded", e.Code)
	}
	if e := ToError(context.Canceled); e.Code != "canceled" {
		t.Errorf("Canceled maps to %q, want canceled", e.Code)
	}
	if e := ToError(errors.New("bad domain")); e.Code != "invalid_request" {
		t.Errorf("plain error maps to %q, want invalid_request", e.Code)
	}
}
