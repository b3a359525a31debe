package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"greenfpga/internal/telemetry"
)

// This file decomposes the compute endpoints' requests into resumable
// studies: a fixed number of independently computable chunks plus a
// finalizer that assembles chunk payloads into the exact bytes the
// synchronous endpoint would have written. The jobs layer checkpoints
// chunk payloads as they complete, so a killed process re-runs only
// the chunks that had not landed — and because Monte-Carlo draws are
// sub-seeded by index and sweep points depend only on the axis, the
// resumed result is bit-identical to an uninterrupted run.

// Chunk sizing: big enough that per-chunk checkpoint writes are noise
// against the compute, small enough that a kill loses little work. A
// 200k-draw study is ~49 chunks; the 100k-point sweep cap is ~98.
const (
	mcChunkDraws     = 4096
	sweepChunkPoints = 1024
)

// Study is one compute request decomposed into checkpointable chunks.
// ComputeChunk is safe to call for any chunk in any order (each call
// parallelizes internally over the worker pool); Finalize requires
// every chunk's payload, in chunk order, and returns the response's
// canonical JSON — byte-identical to the synchronous endpoint's for
// the same CanonicalKey.
type Study struct {
	// Endpoint is the canonical endpoint path ("/v1/mc", ...).
	Endpoint string
	// Key is CanonicalKey(Endpoint, normalized request) — the same
	// content address the server's result cache uses, which is what
	// lets a finished job's bytes serve later synchronous requests.
	Key string

	chunks   int
	compute  func(ctx context.Context, i int) ([]byte, error)
	finalize func(ctx context.Context, chunks [][]byte) ([]byte, error)
}

// NumChunks is the study's chunk count (≥ 1).
func (s *Study) NumChunks() int { return s.chunks }

// ComputeChunk evaluates chunk i and returns its checkpoint payload.
func (s *Study) ComputeChunk(ctx context.Context, i int) ([]byte, error) {
	if i < 0 || i >= s.chunks {
		return nil, fmt.Errorf("chunk %d outside [0, %d)", i, s.chunks)
	}
	return s.compute(ctx, i)
}

// Finalize assembles the chunk payloads (all of them, in chunk order)
// into the response's canonical JSON bytes.
func (s *Study) Finalize(ctx context.Context, chunks [][]byte) ([]byte, error) {
	if len(chunks) != s.chunks {
		return nil, fmt.Errorf("finalizing %d chunks of %d", len(chunks), s.chunks)
	}
	return s.finalize(ctx, chunks)
}

// DecodeStrict decodes one JSON document from r into dst the way every
// request body is read — by the server and for job submissions alike:
// unknown fields and trailing data are errors.
func DecodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// NewStudy decodes one compute request (the body the synchronous
// endpoint would accept) and decomposes it into a resumable Study.
// Endpoints with a chunk plan validate and resolve here — a malformed
// request fails at submission, not mid-job; the rest run whole as a
// single chunk whose payload is already the final response bytes
// (these evaluations are microseconds to milliseconds — nothing worth
// checkpointing below whole-result granularity). ctx bounds the
// resolution work only; each chunk runs under its own context.
func (e *Evaluator) NewStudy(ctx context.Context, endpoint string, raw json.RawMessage) (*Study, error) {
	ep, err := LookupEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	req := ep.NewRequest()
	if err := DecodeStrict(bytes.NewReader(raw), req); err != nil {
		return nil, &Error{Code: "invalid_request", Message: "bad job request: " + err.Error()}
	}
	norm := ep.Normalized(req)
	key, err := CanonicalKey(ep.Path, norm)
	if err != nil {
		return nil, err
	}
	s := &Study{Endpoint: ep.Path, Key: key, chunks: 1,
		compute: func(ctx context.Context, _ int) ([]byte, error) {
			v, err := ep.Run(ctx, e, norm)
			if err != nil {
				return nil, err
			}
			return EncodeJSON(v)
		},
		finalize: func(_ context.Context, chunks [][]byte) ([]byte, error) {
			return chunks[0], nil
		},
	}
	if ep.plan != nil {
		if err := ep.plan(ctx, e, norm, s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// chunkPlan is a validated, resolved request split into items —
// Monte-Carlo draws, sweep points, fleet regions — of width float64s
// each, computed perChunk items at a time. RunMonteCarlo, RunSweep and
// RunFleet run every chunk in-process (run); a Study runs the same
// chunks across checkpoints (into). Draws are sub-seeded by index,
// sweep points depend only on the axis and regions are independent, so
// both paths produce bit-identical responses from the same code.
type chunkPlan[R any] struct {
	items, perChunk, width int
	chunker[R]
}

// chunker evaluates a prepared study: compute turns items [lo, hi) into
// (hi-lo)*width floats; assemble shapes every item's floats, in item
// order, into the response.
type chunker[R any] interface {
	compute(ctx context.Context, lo, hi int) ([]float64, error)
	assemble(ctx context.Context, flat []float64) (R, error)
}

// chunks is the plan's chunk count, never below one (a zero-item study
// still needs an assembly pass).
func (p *chunkPlan[R]) chunks() int {
	return max(1, (p.items+p.perChunk-1)/p.perChunk)
}

// span is chunk i's item range.
func (p *chunkPlan[R]) span(i int) (lo, hi int) {
	lo = i * p.perChunk
	return lo, min(lo+p.perChunk, p.items)
}

// run computes every chunk in order and assembles the response — the
// synchronous path, timed as one compute stage.
func (p *chunkPlan[R]) run(ctx context.Context) (R, error) {
	defer telemetry.StartStage(ctx, "compute")()
	var flat []float64
	for i := range p.chunks() {
		lo, hi := p.span(i)
		vals, err := p.compute(ctx, lo, hi)
		if err != nil {
			var zero R
			return zero, err
		}
		flat = append(flat, vals...)
	}
	return p.assemble(ctx, flat)
}

// into makes s run the plan across checkpoints: a chunk's payload is
// its floats packed little-endian; Finalize unpacks every payload,
// rejecting any of the wrong size, and encodes the assembled response.
func (p *chunkPlan[R]) into(name string, s *Study) {
	s.chunks = p.chunks()
	s.compute = func(ctx context.Context, i int) ([]byte, error) {
		lo, hi := p.span(i)
		vals, err := p.compute(ctx, lo, hi)
		if err != nil {
			return nil, err
		}
		return packFloats(vals), nil
	}
	s.finalize = func(ctx context.Context, chunks [][]byte) ([]byte, error) {
		var flat []float64
		for i, c := range chunks {
			lo, hi := p.span(i)
			var err error
			if flat, err = appendFloats(flat, c, (hi-lo)*p.width); err != nil {
				return nil, fmt.Errorf("%s chunk %d: %w", name, i, err)
			}
		}
		v, err := p.assemble(ctx, flat)
		if err != nil {
			return nil, err
		}
		return EncodeJSON(v)
	}
}

// packFloats encodes vals as little-endian IEEE-754 bits — an exact
// round-trip, unlike any decimal rendering.
func packFloats(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// appendFloats decodes exactly want float64s from b onto dst, erroring
// on any size mismatch (a corrupt or mismatched checkpoint payload).
func appendFloats(dst []float64, b []byte, want int) ([]float64, error) {
	if len(b) != 8*want {
		return nil, fmt.Errorf("payload is %d bytes, want %d", len(b), 8*want)
	}
	for i := range want {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return dst, nil
}
