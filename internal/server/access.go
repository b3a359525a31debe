package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"greenfpga/api"
	"greenfpga/internal/telemetry"
)

// statusWriter wraps the wire writer to record what the middleware
// stack ultimately sent — status code and body bytes — for the
// request-duration histogram and the access log. When the client
// opted into Server-Timing, it also injects the header at the first
// WriteHeader: for compute endpoints the buffered deadline writer
// flushes only after the handler goroutine finished, so every stage
// timer (encode included) has stopped by then.
type statusWriter struct {
	http.ResponseWriter
	timing *telemetry.Trace // non-nil → inject Server-Timing
	status int
	bytes  int64
}

// WriteHeader implements http.ResponseWriter; like the wire writer,
// only the first call sticks.
func (sw *statusWriter) WriteHeader(code int) {
	if sw.status != 0 {
		return
	}
	sw.status = code
	if sw.timing != nil {
		if v := sw.timing.ServerTiming(); v != "" {
			sw.Header().Set("Server-Timing", v)
		}
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wire writer to http.ResponseController, which the
// hit lane uses to bound its body read.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Write implements http.ResponseWriter.
func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.WriteHeader(http.StatusOK)
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// outcomeFor classifies a finished request for the duration
// histogram's outcome label. A trace-recorded outcome wins (the panic
// handler marks "panic" there, since any internal failure answers
// 500); then the status code and the X-Cache header decide. Status 0
// means nothing was written — the client went away while the request
// was queued or its handler was still running.
func outcomeFor(tr *telemetry.Trace, status int, cacheState string) string {
	if o := tr.Outcome(); o != "" {
		return o
	}
	switch {
	case status == 0, status == 499:
		return "canceled"
	case status == http.StatusServiceUnavailable:
		return "shed"
	case status == http.StatusGatewayTimeout:
		return "deadline"
	case status >= 500:
		return "error"
	case status >= 400:
		return "invalid"
	}
	switch cacheState {
	case "hit":
		return "cache-hit"
	case "coalesced":
		return "coalesced"
	}
	return "ok"
}

// accessLogger writes one-line JSON access records, serialized so
// concurrent requests never interleave lines.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// logBuffers pools the access-log encode buffers so a logged request
// allocates no per-line scratch (json.Encoder appends the newline the
// line format needs, where json.Marshal would cost a copy to add it).
var logBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeLine encodes v as one line and writes it under the logger's
// lock.
func (l *accessLogger) writeLine(v any) {
	buf := logBuffers.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		logBuffers.Put(buf)
	}()
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(buf.Bytes())
}

// accessRecord is one access-log line. Durations are milliseconds —
// the human-scanning unit — while the histograms keep seconds, the
// Prometheus convention.
type accessRecord struct {
	Time    string             `json:"time"`
	ID      string             `json:"id"`
	Method  string             `json:"method"`
	Path    string             `json:"path"`
	Status  int                `json:"status"`
	Bytes   int64              `json:"bytes"`
	DurMS   float64            `json:"dur_ms"`
	Outcome string             `json:"outcome"`
	Cache   string             `json:"cache,omitempty"`
	Stages  map[string]float64 `json:"stages_ms,omitempty"`
}

// log renders and writes one record.
func (l *accessLogger) log(rec accessRecord) {
	if l == nil {
		return
	}
	l.writeLine(&rec)
}

// preamble writes the first line of an access log: which build is
// serving, where — so a rotated log file identifies its process
// without external context.
func (l *accessLogger) preamble(addr string) {
	if l == nil {
		return
	}
	v := api.BuildVersion()
	rec := struct {
		Time    string `json:"time"`
		Msg     string `json:"msg"`
		Addr    string `json:"addr"`
		Version string `json:"version"`
		Go      string `json:"go_version"`
		Rev     string `json:"revision,omitempty"`
		Dirty   bool   `json:"dirty,omitempty"`
	}{
		Time: time.Now().UTC().Format(time.RFC3339Nano), Msg: "serving",
		Addr: addr, Version: v.Version, Go: v.GoVersion, Rev: v.Revision, Dirty: v.Dirty,
	}
	l.writeLine(&rec)
}

// observe flushes one finished request into the telemetry surfaces:
// the per-endpoint duration and size histograms, the per-stage
// histograms, and the access log.
func (s *Server) observe(r *http.Request, sw *statusWriter, tr *telemetry.Trace,
	endpoint string, elapsed time.Duration) {
	outcome := outcomeFor(tr, sw.status, sw.Header().Get("X-Cache"))
	s.m.reqDur.With(endpoint, outcome).Observe(elapsed.Seconds())
	s.m.respSize.With(endpoint).Observe(float64(sw.bytes))
	stages := tr.Stages()
	for _, st := range stages {
		s.m.stageDur.With(st.Name).Observe(st.Duration.Seconds())
	}
	if s.access == nil {
		return
	}
	rec := accessRecord{
		Time: time.Now().UTC().Format(time.RFC3339Nano), ID: tr.ID,
		Method: r.Method, Path: r.URL.Path, Status: sw.status, Bytes: sw.bytes,
		DurMS:   float64(elapsed) / float64(time.Millisecond),
		Outcome: outcome, Cache: sw.Header().Get("X-Cache"),
	}
	if len(stages) > 0 {
		rec.Stages = make(map[string]float64, len(stages))
		for _, st := range stages {
			// Round to the 3 decimals ServerTiming uses; full float64
			// nanoseconds are noise in a log line.
			rec.Stages[st.Name] = roundMS(st.Duration)
		}
	}
	s.access.log(rec)
}

// roundMS renders a duration in milliseconds at microsecond grain.
func roundMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}
