package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"greenfpga/api"
	"greenfpga/internal/jobs"
	"greenfpga/internal/telemetry"
)

// This file serves the asynchronous job surface. A job is a compute
// request accepted at POST /v1/jobs (202) and executed on the jobs
// manager's workers, checkpointing into the durable store; the other
// handlers poll its record, fetch its result (the exact bytes the
// synchronous endpoint would have written, or NDJSON for large sweep
// surfaces) and cancel or delete it. The endpoints are registered only
// when the server has a store — without a durable tier, an async job
// could not outlive the request that submitted it, let alone the
// process.

// jobStatus converts a durable job record into its wire shape.
func jobStatus(rec jobs.Record) api.JobStatus {
	st := api.JobStatus{
		ID:            rec.ID,
		Endpoint:      rec.Endpoint,
		State:         string(rec.State),
		Chunks:        rec.Chunks,
		ChunksDone:    rec.ChunksDone,
		Key:           rec.Key,
		CreatedUnixMs: rec.CreatedUnixMs,
		UpdatedUnixMs: rec.UpdatedUnixMs,
	}
	if rec.Error != "" {
		code := rec.ErrorCode
		if code == "" {
			code = "internal"
		}
		st.Error = &api.Error{Code: code, Message: rec.Error}
	}
	return st
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobSubmitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Endpoint == "" {
		s.writeError(w, &api.Error{Code: "invalid_request", Message: "missing job endpoint"})
		return
	}
	if len(req.Request) == 0 {
		req.Request = json.RawMessage("{}")
	}
	rec, err := s.jobs.Submit(r.Context(), req.Endpoint, req.Request)
	if err != nil {
		s.writeError(w, api.ToError(err))
		return
	}
	defer telemetry.StartStage(r.Context(), "encode")()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = api.WriteJSON(w, jobStatus(rec))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	recs, err := s.jobs.List()
	if err != nil {
		s.writeError(w, api.ToError(err))
		return
	}
	out := api.JobList{Jobs: make([]api.JobStatus, len(recs))}
	for i, rec := range recs {
		out.Jobs[i] = jobStatus(rec)
	}
	s.writeJSON(w, r, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, api.ToError(err))
		return
	}
	s.writeJSON(w, r, jobStatus(rec))
}

// handleJobResult serves a done job's response. The default is the
// stored bytes verbatim — byte-identical to the synchronous endpoint's
// response for the same request, which is what the acceptance tests
// pin. ?format=ndjson re-frames a sweep result as one envelope line
// followed by one point per line, so a million-point surface can be
// consumed incrementally instead of parsed as one document.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	rec, body, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		s.writeError(w, api.ToError(err))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		defer telemetry.StartStage(r.Context(), "encode")()
		h := w.Header()
		h.Set("X-Cache", "store")
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	case "ndjson":
		// The lookup cannot fail: the endpoint table registers sweep.
		if sweep, _ := api.CanonicalEndpoint("sweep"); rec.Endpoint != sweep {
			s.writeError(w, &api.Error{Code: "invalid_request",
				Message: "ndjson framing is only available for sweep results"})
			return
		}
		s.writeSweepNDJSON(w, r, body)
	default:
		s.writeError(w, &api.Error{Code: "invalid_request",
			Message: fmt.Sprintf("unknown result format %q (json, ndjson)", format)})
	}
}

// sweepEnvelope is the first NDJSON line: the sweep response minus its
// points, plus the point count so a consumer can preallocate (and tell
// a truncated stream from a complete one).
type sweepEnvelope struct {
	Domain    string   `json:"domain"`
	Axis      string   `json:"axis"`
	Platforms []string `json:"platforms,omitempty"`
	Points    int      `json:"points"`
}

// writeSweepNDJSON re-frames stored sweep bytes as NDJSON.
func (s *Server) writeSweepNDJSON(w http.ResponseWriter, r *http.Request, body []byte) {
	var resp api.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		s.writeError(w, &api.Error{Code: "internal", Message: "corrupt stored sweep result: " + err.Error()})
		return
	}
	defer telemetry.StartStage(r.Context(), "encode")()
	w.Header().Set("X-Cache", "store")
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	// api.WriteJSON emits compact JSON plus a trailing newline — exactly
	// one NDJSON line per call.
	if err := api.WriteJSON(bw, sweepEnvelope{
		Domain: resp.Domain, Axis: resp.Axis, Platforms: resp.Platforms, Points: len(resp.Points),
	}); err != nil {
		return
	}
	for i := range resp.Points {
		if err := api.WriteJSON(bw, &resp.Points[i]); err != nil {
			return
		}
	}
	_ = bw.Flush()
}

// handleJobDelete cancels the job if active and removes its record and
// checkpoints; the content-addressed result bytes stay (they may be
// serving the synchronous cache tier or an identical job).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Delete(id); err != nil {
		s.writeError(w, api.ToError(err))
		return
	}
	s.writeJSON(w, r, api.JobStatus{ID: id, State: "deleted"})
}
