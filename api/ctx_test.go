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
// halts the draw loop: a study sized for tens of seconds of compute
// (500k draws of 1000 applications, ~55s on 2 vCPUs and ~27s on 4)
// returns context.DeadlineExceeded in a small fraction of that.
func TestDeadlineStopsLongMonteCarlo(t *testing.T) {
	e := NewEvaluator(4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunMonteCarlo(ctx, MonteCarloRequest{Samples: 500_000, Seed: 1, NApps: 1000}.Normalized())
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 5*time.Second {
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
