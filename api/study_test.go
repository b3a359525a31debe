package api

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// runStudy computes every chunk (deliberately out of order — resume
// never sees them sequentially) and finalizes.
func runStudy(t *testing.T, s *Study) []byte {
	t.Helper()
	ctx := context.Background()
	chunks := make([][]byte, s.NumChunks())
	for i := s.NumChunks() - 1; i >= 0; i-- {
		c, err := s.ComputeChunk(ctx, i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		chunks[i] = c
	}
	out, err := s.Finalize(ctx, chunks)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return out
}

// TestStudyBytesMatchSync is the acceptance contract: for every
// endpoint of the table, a study's finalized bytes — chunks computed
// out of order and round-tripped through their checkpoint payloads —
// are identical to the synchronous endpoint's canonical encoding of
// the same request, and its key is the synchronous cache key: the
// property that lets a job result serve later synchronous requests
// from the durable tier.
func TestStudyBytesMatchSync(t *testing.T) {
	ctx := context.Background()
	forEachEndpoint(t, func(t *testing.T, ep *Endpoint, body string) {
		s, err := testEval.NewStudy(ctx, ep.Name, json.RawMessage(body))
		if err != nil {
			t.Fatalf("NewStudy: %v", err)
		}
		want, err := syncBytes(ctx, ep, body)
		if err != nil {
			t.Fatalf("sync run: %v", err)
		}
		if got := runStudy(t, s); !bytes.Equal(got, want) {
			t.Fatalf("study bytes differ from sync endpoint:\nstudy: %.200s\nsync:  %.200s", got, want)
		}
		req := ep.NewRequest()
		if err := json.Unmarshal([]byte(body), req); err != nil {
			t.Fatal(err)
		}
		if key, err := CanonicalKey(ep.Path, ep.Normalized(req)); err != nil || s.Key != key {
			t.Errorf("study key %q != sync cache key %q (%v)", s.Key, key, err)
		}
		if ep.plan != nil && s.NumChunks() < 2 {
			t.Errorf("chunked endpoint's representative body runs as %d chunk(s); it must exercise reassembly", s.NumChunks())
		}
	})
}

// TestStudyFinalizeRejectsCorruptChunks checks every chunked endpoint
// refuses a checkpoint payload of the wrong size instead of assembling
// garbage (or panicking).
func TestStudyFinalizeRejectsCorruptChunks(t *testing.T) {
	ctx := context.Background()
	forEachEndpoint(t, func(t *testing.T, ep *Endpoint, body string) {
		if ep.plan == nil {
			t.Skip("single-chunk endpoint: its payload is the response itself")
		}
		s, err := testEval.NewStudy(ctx, ep.Path, json.RawMessage(body))
		if err != nil {
			t.Fatal(err)
		}
		chunks := make([][]byte, s.NumChunks())
		for i := range chunks {
			if chunks[i], err = s.ComputeChunk(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
		chunks[1] = chunks[1][:len(chunks[1])-8]
		if _, err := s.Finalize(ctx, chunks); err == nil || !strings.Contains(err.Error(), ep.Name+" chunk 1") {
			t.Errorf("truncated chunk: err = %v, want a %q chunk 1 error", err, ep.Name)
		}
	})
}

// TestStudyChunking pins the decomposition: a 9000-draw MC study at
// 4096 draws per chunk is 3 chunks, and its key matches the
// synchronous cache key for the same normalized request.
func TestStudyChunking(t *testing.T) {
	e := NewEvaluator(4)
	ctx := context.Background()
	s, err := e.NewStudy(ctx, "/v1/mc", json.RawMessage(`{"domain": "DNN", "samples": 9000, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d, want 3", s.NumChunks())
	}
	var req MonteCarloRequest
	if err := json.Unmarshal([]byte(`{"domain": "DNN", "samples": 9000, "seed": 7}`), &req); err != nil {
		t.Fatal(err)
	}
	key, err := CanonicalKey("/v1/mc", req.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if s.Key != key {
		t.Fatalf("study key %q != sync cache key %q", s.Key, key)
	}
	if _, err := s.ComputeChunk(ctx, 3); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := s.Finalize(ctx, make([][]byte, 2)); err == nil {
		t.Fatal("short finalize accepted")
	}
}

// TestStudyRejects pins submission-time validation.
func TestStudyRejects(t *testing.T) {
	e := NewEvaluator(4)
	ctx := context.Background()
	for _, tc := range []struct{ endpoint, raw string }{
		{"nonsense", `{}`},
		{"mc", `{"domain": "DNN", "bogus_field": 1}`},
		{"mc", `{"domain": "NoSuchDomain"}`},
		{"sweep", `{"domain": "DNN", "axis": "bogus"}`},
		{"mc", `{} trailing`},
	} {
		if _, err := e.NewStudy(ctx, tc.endpoint, json.RawMessage(tc.raw)); err == nil {
			t.Errorf("NewStudy(%q, %s) accepted", tc.endpoint, tc.raw)
		}
	}
}
