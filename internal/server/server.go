// Package server implements the `greenfpga serve` HTTP evaluation
// service: the api package's request/response types exposed at
// /v1/..., plus /healthz and /metrics.
//
// Request flow: every request is counted, compute endpoints pass
// through a bounded-wait concurrency limiter (a saturated server sheds
// load with 503 + Retry-After instead of queueing unboundedly) and a
// per-endpoint request deadline (overruns answer 504 with a
// deadline_exceeded envelope and cancel the compute context, which the
// api layer's sweeps, frontiers and Monte-Carlo workers observe), and
// each POST body is decoded strictly (unknown fields rejected) into
// its typed api request, normalized, and content-addressed with
// api.CanonicalKey. A hit in the result cache returns the stored
// response without re-evaluating; concurrent identical misses coalesce
// through a singleflight group so N waiters cost one evaluation (the
// followers answer X-Cache: coalesced); the leader computes through
// the shared api entry points — the same code the CLI runs — and
// caches the result. Handler panics are recovered into internal-error
// envelopes and counted instead of dropping the connection. Batch
// evaluation fans items out over internal/pool and shares the
// single-evaluate cache entries and singleflight keyspace, so a batch
// warms the cache for later singles and vice versa. Compiled platforms
// and experiment artifacts are likewise cached across requests (see
// api.Evaluator and the artifact cache here), so repeated and swept
// queries hit PR 1's compiled fast path or skip evaluation entirely.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"greenfpga/api"
	"greenfpga/internal/cache"
	"greenfpga/internal/experiments"
	"greenfpga/internal/jobs"
	"greenfpga/internal/pool"
	"greenfpga/internal/resilience"
	"greenfpga/internal/store"
	"greenfpga/internal/telemetry"
)

// maxBody bounds a request body (1 MiB): scenario documents are a few
// KiB, so anything larger is a mistake or abuse.
const maxBody = 1 << 20

// maxBatch bounds the items of one batch evaluate.
const maxBatch = 1024

// Options configures a Server. Zero values take defaults.
type Options struct {
	// Addr is the listen address ("127.0.0.1:8080"; use port 0 for an
	// ephemeral port).
	Addr string
	// MaxConcurrent bounds the compute requests evaluated at once
	// (default 64); excess requests queue up to MaxQueueWait.
	MaxConcurrent int
	// CacheEntries bounds the content-addressed result cache
	// (default 1024).
	CacheEntries int
	// CompiledPlatforms bounds the compiled-platform cache
	// (default 256).
	CompiledPlatforms int
	// RequestTimeout is the wall-clock deadline of one compute request
	// (default 30s; negative disables). An overrun answers 504 with a
	// deadline_exceeded envelope and cancels the compute context.
	RequestTimeout time.Duration
	// EndpointTimeouts overrides RequestTimeout per endpoint path
	// (e.g. {"/v1/mc": 2 * time.Minute}).
	EndpointTimeouts map[string]time.Duration
	// MaxQueueWait bounds how long a compute request may wait for a
	// limiter slot before the server sheds it with 503 + Retry-After
	// (default 2s; negative queues without bound).
	MaxQueueWait time.Duration
	// ComputeWrap, when non-nil, wraps every compute handler innermost
	// — inside the deadline and panic-recovery middleware — so tests
	// can inject faults (panics, latency, truncation) exactly where a
	// misbehaving handler would produce them. Test-only.
	ComputeWrap func(http.Handler) http.Handler
	// AccessLog, when non-nil, receives one-line JSON access records —
	// request ID, method, path, status, bytes, duration, outcome,
	// per-stage timings — plus a build-identity preamble at Start.
	AccessLog io.Writer
	// PprofAddr, when non-empty, serves net/http/pprof on a separate
	// listener. It must resolve to a loopback address: the profiler
	// exposes heap contents and must never ride the service port or an
	// external interface.
	PprofAddr string
	// Store, when non-nil, enables the durable tier: computed results
	// persist across restarts (result-cache misses fall through to the
	// store before computing) and the /v1/jobs endpoints accept
	// asynchronous, checkpoint-resumable studies. The caller owns the
	// store's lifecycle and closes it after Shutdown returns.
	Store *store.Store
	// JobWorkers bounds concurrently running jobs (default 1 — each
	// chunk already parallelizes over the shared worker pool).
	JobWorkers int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8080"
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.CompiledPlatforms <= 0 {
		o.CompiledPlatforms = 256
	}
	switch {
	case o.RequestTimeout == 0:
		o.RequestTimeout = 30 * time.Second
	case o.RequestTimeout < 0:
		o.RequestTimeout = 0 // disabled
	}
	switch {
	case o.MaxQueueWait == 0:
		o.MaxQueueWait = 2 * time.Second
	case o.MaxQueueWait < 0:
		o.MaxQueueWait = -1 // unbounded
	}
	return o
}

// timeoutFor resolves an endpoint's request deadline.
func (o Options) timeoutFor(endpoint string) time.Duration {
	if d, ok := o.EndpointTimeouts[endpoint]; ok {
		return d
	}
	return o.RequestTimeout
}

// DeadlineRoutes lists the routes that carry a request deadline — the
// paths Options.EndpointTimeouts can override: every compute endpoint
// of the api table, the batch evaluate and the experiment artifacts.
func DeadlineRoutes() []string {
	routes := make([]string, 0, len(api.Endpoints)+2)
	for _, ep := range api.Endpoints {
		routes = append(routes, ep.Path)
	}
	return append(routes, "/v1/evaluate/batch", "/v1/experiments/{id}")
}

// Server is the GreenFPGA evaluation service.
type Server struct {
	opts    Options
	eval    *api.Evaluator
	results *cache.LRU
	// artifacts caches rendered experiments per (id, format),
	// separately from results so artifact traffic neither evicts
	// evaluation entries nor skews the result-cache metrics.
	artifacts *cache.LRU
	limiter   *resilience.Limiter
	// flight coalesces concurrent identical cache misses: N waiters on
	// one CanonicalKey cost exactly one evaluation.
	flight resilience.Group
	mux    *http.ServeMux
	m      metrics

	known map[string]bool // experiment IDs, for 404 vs 400

	access *accessLogger // nil without -access-log

	// store and jobs are the durable tier (nil without Options.Store):
	// finished results persist at result:<CanonicalKey> and the jobs
	// manager checkpoints asynchronous studies into the same store.
	store *store.Store
	jobs  *jobs.Manager

	hs      *http.Server
	ln      net.Listener
	pprofHS *http.Server
	pprofLn net.Listener
	done    chan error
}

// New builds a Server; call Handler for an http.Handler (tests) or
// Start/Shutdown to run it. It fails only when the durable tier cannot
// start (a corrupt job record queue overflowing, which recovery
// surfaces here rather than at first submission).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		eval: api.NewEvaluator(opts.CompiledPlatforms),
		// ~24 experiment IDs x 4 formats bounds the artifact space.
		artifacts: cache.New(128),
		results:   cache.New(opts.CacheEntries),
		limiter:   resilience.NewLimiter(opts.MaxConcurrent),
		known:     make(map[string]bool),
	}
	for _, id := range experiments.List() {
		s.known[id] = true
	}
	s.m.init()
	if opts.AccessLog != nil {
		s.access = &accessLogger{w: opts.AccessLog}
	}
	s.mux = http.NewServeMux()
	s.route("GET /healthz", "/healthz", false, false, s.handleHealthz)
	s.route("GET /metrics", "/metrics", false, false, s.handleMetrics)
	s.route("GET /v1/version", "/v1/version", false, false, s.handleVersion)
	s.route("GET /v1/devices", "/v1/devices", false, false, s.handleDevices)
	s.route("GET /v1/domains", "/v1/domains", false, false, s.handleDomains)
	s.route("GET /v1/regions", "/v1/regions", false, false, s.handleRegions)
	s.route("GET /v1/experiments", "/v1/experiments", false, false, s.handleExperimentList)
	s.route("GET /v1/experiments/{id}", "/v1/experiments/{id}", true, true, s.handleExperiment)
	for _, ep := range api.Endpoints {
		s.route("POST "+ep.Path, ep.Path, true, true, s.handleCompute(ep))
	}
	// The batch endpoint is not limited as a whole: it charges the
	// limiter per item inside the fan-out, so -max-concurrent bounds
	// actual concurrent evaluations across every request shape (a
	// whole-batch slot would both under-count the work and deadlock
	// against per-item slots). It still gets the compute stack — one
	// deadline over the whole batch, panic recovery, fault wrap.
	s.route("POST /v1/evaluate/batch", "/v1/evaluate/batch", false, true, s.handleBatch)
	if opts.Store != nil {
		s.store = opts.Store
		mgr, err := jobs.New(jobs.Options{
			Store:   opts.Store,
			Build:   jobs.EvaluatorBuilder(s.eval),
			Workers: opts.JobWorkers,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = mgr
		// Job endpoints are not limiter-gated: submission and polling
		// are metadata operations, and the study itself executes on the
		// manager's workers, not in-request. They are registered only
		// with a store — an async job must outlive the process that
		// accepted it, which requires the durable tier.
		s.route("POST /v1/jobs", "/v1/jobs", false, false, s.handleJobSubmit)
		s.route("GET /v1/jobs", "/v1/jobs", false, false, s.handleJobList)
		s.route("GET /v1/jobs/{id}", "/v1/jobs/{id}", false, false, s.handleJobStatus)
		s.route("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", false, false, s.handleJobResult)
		s.route("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", false, false, s.handleJobDelete)
	}
	return s, nil
}

// route registers a handler behind the middleware stack, outermost
// first: the telemetry wrapper (request ID accept-or-generate, trace
// context, duration/size/stage histograms, the access log), request
// counting, bounded-wait concurrency limiting (limited endpoints;
// saturation sheds with 503 + Retry-After), the request deadline
// (compute endpoints; overruns answer 504 and cancel the compute
// context), panic recovery (all endpoints; panics answer 500 internal
// envelopes and are counted), and the test-only fault wrap (compute
// endpoints, innermost — where a misbehaving handler would fault).
// The deadline middleware runs its inner handler on a child goroutine
// against a buffered writer, so recovery sits inside it: a panicking
// compute handler is recovered on that goroutine and its half-written
// buffer replaced with a clean envelope. The telemetry wrapper sits
// outside everything so a shed, timed-out or panicking request is
// observed like any other.
func (s *Server) route(pattern, endpoint string, limited, compute bool, h http.HandlerFunc) {
	var inner http.Handler = h
	if compute && s.opts.ComputeWrap != nil {
		inner = s.opts.ComputeWrap(inner)
	}
	inner = resilience.Recover(inner, s.onPanic)
	if compute {
		inner = resilience.Deadline(s.opts.timeoutFor(endpoint), inner, s.onDeadline)
	}
	ctr := s.m.counter(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !telemetry.ValidRequestID(id) {
			id = telemetry.NewRequestID()
		}
		tr := telemetry.NewTrace(id)
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-ID", id)
		if r.Header.Get("X-Server-Timing") != "" {
			sw.timing = tr
		}
		defer func() { s.observe(r, sw, tr, endpoint, time.Since(start)) }()
		ctr.Add(1)
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)
		if limited {
			wait, err := s.limiter.AcquireWait(r.Context(), s.opts.MaxQueueWait)
			s.m.queueWait.Observe(wait.Seconds())
			if err != nil {
				if errors.Is(err, resilience.ErrShed) {
					s.m.shed.Add(1)
					s.writeShed(sw)
				} else {
					// The client gave up while queued; nothing to write.
					s.m.rejected.Add(1)
				}
				return
			}
			defer s.limiter.Release()
		}
		inner.ServeHTTP(sw, r)
	})
}

// onPanic converts a recovered handler panic into an internal-error
// envelope. Under the deadline middleware the writer is buffered, so a
// half-written response is reset cleanly before the envelope.
func (s *Server) onPanic(w http.ResponseWriter, r *http.Request, v any) {
	s.m.panics.Add(1)
	// Status alone cannot tell a panic from any other internal error;
	// the trace outcome can.
	telemetry.FromContext(r.Context()).SetOutcome("panic")
	if rw, ok := w.(interface{ Reset() }); ok {
		rw.Reset()
	}
	s.writeError(w, &api.Error{Code: "internal",
		Message: fmt.Sprintf("panic serving %s: %v", r.URL.Path, v)})
}

// onDeadline answers a request whose handler overran its deadline.
func (s *Server) onDeadline(w http.ResponseWriter, r *http.Request) {
	s.m.deadlines.Add(1)
	s.writeError(w, &api.Error{Code: "deadline_exceeded",
		Message: "request deadline exceeded before the evaluation finished"})
}

// writeShed answers a request shed by the saturated limiter: 503 with
// a Retry-After hint sized to the queue-wait bound.
func (s *Server) writeShed(w http.ResponseWriter) {
	after := int64(1)
	if wait := s.opts.MaxQueueWait; wait > time.Second {
		after = int64((wait + time.Second - 1) / time.Second)
	}
	w.Header().Set("Retry-After", strconv.FormatInt(after, 10))
	s.writeError(w, &api.Error{Code: "overloaded",
		Message: "saturated: no evaluation slot freed within the queue-wait bound; retry later"})
}

// Handler returns the service's http.Handler (for httptest and
// embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on the configured address and serves in the
// background, returning the bound address (which resolves port 0).
// With PprofAddr set it also starts the loopback-only profiler
// listener, and with an access log configured it writes the
// build-identity preamble.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	if s.opts.PprofAddr != "" {
		if err := s.startPprof(); err != nil {
			ln.Close()
			return "", err
		}
	}
	s.access.preamble(ln.Addr().String())
	s.hs = &http.Server{
		Handler: s.mux,
		// A client that dribbles its headers (or never sends them)
		// must not hold a connection forever; idle keep-alive
		// connections are likewise bounded.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.done = make(chan error, 1)
	go func() {
		err := s.hs.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return ln.Addr().String(), nil
}

// Done reports the Serve loop's exit (nil after a clean Shutdown).
func (s *Server) Done() <-chan error { return s.done }

// startPprof serves net/http/pprof on its own listener with its own
// mux — never the service mux, so the profiler cannot leak onto the
// service port, and never DefaultServeMux, so nothing else leaks onto
// the profiler port. The address must resolve to loopback.
func (s *Server) startPprof() error {
	host, _, err := net.SplitHostPort(s.opts.PprofAddr)
	if err != nil {
		return fmt.Errorf("pprof addr: %w", err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("pprof addr %q is not loopback; the profiler exposes heap contents and must stay local", s.opts.PprofAddr)
	}
	ln, err := net.Listen("tcp", s.opts.PprofAddr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.pprofLn = ln
	s.pprofHS = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.pprofHS.Serve(ln) }()
	return nil
}

// PprofAddr returns the profiler's bound address ("" when disabled).
func (s *Server) PprofAddr() string {
	if s.pprofLn == nil {
		return ""
	}
	return s.pprofLn.Addr().String()
}

// Shutdown stops the service in dependency order: new job submissions
// are refused first (503, so nothing durable is accepted that the
// dying process cannot run), then the HTTP listener drains in-flight
// requests, then the jobs manager interrupts running studies after
// their current chunk — parking them resumable in the store and
// syncing it — so the caller can close the store last. Everything is
// bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.pprofHS != nil {
		_ = s.pprofHS.Close()
	}
	if s.jobs != nil {
		s.jobs.Drain()
	}
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	if s.jobs != nil {
		if jerr := s.jobs.Shutdown(ctx); err == nil {
			err = jerr
		}
	}
	return err
}

// writeJSON writes v as the service's canonical JSON, timing the
// encode stage on the request's trace.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	defer telemetry.StartStage(r.Context(), "encode")()
	w.Header().Set("Content-Type", "application/json")
	if err := api.WriteJSON(w, v); err != nil {
		// The header is gone; nothing recoverable remains.
		return
	}
}

// status maps an error code to its HTTP status.
func status(code string) int {
	switch code {
	case "invalid_request":
		return http.StatusBadRequest
	case "not_found":
		return http.StatusNotFound
	case "overloaded":
		return http.StatusServiceUnavailable
	case "deadline_exceeded":
		return http.StatusGatewayTimeout
	case "canceled":
		// 499 Client Closed Request (nginx convention): the client
		// abandoned the request; usually no one reads this.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// writeError writes the JSON error envelope.
func (s *Server) writeError(w http.ResponseWriter, e *api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status(e.Code))
	_ = api.WriteJSON(w, e)
}

// decodeJSON strictly decodes the request body into dst, writing the
// validation error itself when the body is malformed.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	defer telemetry.StartStage(r.Context(), "decode")()
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	err := api.DecodeStrict(r.Body, dst)
	if err == nil {
		return true
	}
	msg := "bad request body: " + err.Error()
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		msg = "request body exceeds the 1 MiB limit"
	}
	s.writeError(w, &api.Error{Code: "invalid_request", Message: msg})
	return false
}

// deadFlight reports a flight result that died with its leader — a
// context error or panic belonging to the leader's request — rather
// than a verdict about the computation itself. A follower whose own
// context is still live should retry such a flight.
func deadFlight(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, resilience.ErrLeaderPanic)
}

// cachedResponse is what the result cache retains: the response
// envelope pre-encoded to its canonical wire bytes, plus the decoded
// value for callers that embed rather than stream it (the batch
// handler) and for admission predicates. The bytes are immutable once
// cached — every hit writes the same slice, which is what makes
// miss-then-hit responses byte-identical by construction.
type cachedResponse struct {
	body []byte // canonical JSON incl. trailing newline; never mutated
	val  any    // the decoded response the bytes encode
}

// writeCached answers with a pre-encoded envelope: one Write, no
// marshaling. The encode stage is still timed so the stage histogram
// shows what the byte cache removed (~0 on hits vs the miss path's
// real marshal).
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, state string, cr *cachedResponse) {
	defer telemetry.StartStage(r.Context(), "encode")()
	h := w.Header()
	h.Set("X-Cache", state)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(cr.body)))
	_, _ = w.Write(cr.body)
}

// handleCompute serves one compute endpoint of the api table: strict
// decode into the endpoint's typed request and normalization — keying
// on the normalized request makes a legacy body and its spec spelling
// one cache entry — then the cached, coalesced compute path.
func (s *Server) handleCompute(ep *api.Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := ep.NewRequest()
		if !s.decodeJSON(w, r, req) {
			return
		}
		cr, state, err := s.cached(r.Context(), ep, ep.Normalized(req), true)
		if err != nil {
			s.writeError(w, api.ToError(err))
			return
		}
		s.writeCached(w, r, state, cr)
	}
}

// cached answers a normalized request — the content being addressed —
// from the content-addressed result cache ("hit"), or computes, encodes
// (timing the encode stage on the computing request's trace) and
// caches it ("miss"). Concurrent identical misses coalesce onto one
// evaluation through the singleflight group ("coalesced"). The
// endpoint's Admit rule gates admission (for responses too large to be
// worth pinning). With durable set, the store tier sits under the LRU
// ("store" hits, and admitted misses persist there).
//
// The cache stores encoded bytes, not decoded values: a hit (and a
// coalesced follower — the flight's result is the leader's encoded
// envelope) is a single Write that never touches encoding/json.
func (s *Server) cached(ctx context.Context, ep *api.Endpoint, norm any, durable bool) (*cachedResponse, string, error) {
	key, err := api.CanonicalKey(ep.Path, norm)
	if err != nil {
		return nil, "", &api.Error{Code: "internal", Message: err.Error()}
	}
	if v, ok := s.results.Get(key); ok {
		return v.(*cachedResponse), "hit", nil
	}
	durable = durable && s.store != nil
	// A result computed before a restart — or finished by an
	// asynchronous job — serves without recomputing. The store answers
	// bytes only (the decoded value is gone with the old process), so
	// it must not enter the LRU, whose batch consumers type-assert the
	// decoded value.
	if durable {
		if body, ok, err := s.store.Get("result:" + key); err == nil && ok {
			s.m.storeHits.Add(1)
			return &cachedResponse{body: body}, "store", nil
		}
	}
	v, err, shared := s.flight.Do(key, func() (any, error) {
		out, err := ep.Run(ctx, s.eval, norm)
		if err != nil {
			return nil, err
		}
		stop := telemetry.StartStage(ctx, "encode")
		body, err := api.EncodeJSON(out)
		stop()
		if err != nil {
			return nil, err
		}
		return &cachedResponse{body: body, val: out}, nil
	})
	// A flight that died with its leader — the leader's deadline fired,
	// its client hung up, its handler panicked — proves nothing about
	// the request, so a follower whose own context is still live starts
	// a fresh flight instead of inheriting the corpse.
	if shared && err != nil && deadFlight(err) && ctx.Err() == nil {
		return s.cached(ctx, ep, norm, durable)
	}
	if shared {
		s.m.coalesced.Add(1)
	}
	if err != nil {
		return nil, "", err
	}
	cr := v.(*cachedResponse)
	if shared {
		return cr, "coalesced", nil
	}
	if ep.Admit == nil || ep.Admit(cr.val) {
		s.results.Put(key, cr)
		// Persist under the same admission predicate, so the next
		// process (or an eviction) finds it in the durable tier.
		if durable {
			_ = s.store.Put("result:"+key, cr.body)
		}
	}
	return cr, "miss", nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.Health{Status: "ok"})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.BuildVersion())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.writeMetrics(w)
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.Devices())
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.Domains())
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.Regions())
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, api.Experiments())
}

// evaluate is the single-evaluate endpoint whose cache keyspace batch
// items share (the lookup cannot fail: the table registers evaluate).
var evaluate, _ = api.LookupEndpoint("evaluate")

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchEvaluateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, &api.Error{Code: "invalid_request", Message: "empty batch"})
		return
	}
	if len(req.Requests) > maxBatch {
		s.writeError(w, &api.Error{Code: "invalid_request",
			Message: fmt.Sprintf("batch of %d exceeds the %d-item limit", len(req.Requests), maxBatch)})
		return
	}
	resp := api.BatchEvaluateResponse{Results: make([]api.BatchItem, len(req.Requests))}
	// Fan out over the worker pool, acquiring one limiter slot per
	// item so batches share the -max-concurrent budget with single
	// evaluates — and shed per item when the slot wait exceeds the
	// bound. Items share the single-evaluate cache keyspace and
	// singleflight group, so a batch both benefits from and warms the
	// /v1/evaluate entries and coalesces with concurrent singles.
	// Item errors land in the item, never abort the batch.
	_ = pool.Run(len(req.Requests), 1, func(i int) error {
		if err := s.limiter.Acquire(r.Context(), s.opts.MaxQueueWait); err != nil {
			if errors.Is(err, resilience.ErrShed) {
				s.m.shed.Add(1)
				resp.Results[i] = api.BatchItem{Error: &api.Error{
					Code: "overloaded", Message: "saturated: item shed after the queue-wait bound; retry later"}}
			} else {
				s.m.rejected.Add(1)
				resp.Results[i] = api.BatchItem{Error: &api.Error{
					Code: "overloaded", Message: "client gave up while the item was queued"}}
			}
			return nil
		}
		defer s.limiter.Release()
		// The single endpoint's cached path without the store tier (its
		// hits carry bytes only): a batch miss warms the byte cache for
		// later singles (and coalesces with concurrent ones); the batch
		// document embeds the decoded value the bytes retain.
		cr, _, err := s.cached(r.Context(), evaluate, req.Requests[i].Normalized(), false)
		if err != nil {
			resp.Results[i] = api.BatchItem{Error: api.ToError(err)}
			return nil
		}
		resp.Results[i] = api.BatchItem{Response: cr.val.(*api.EvaluateResponse)}
		return nil
	})
	s.writeJSON(w, r, resp)
}

// artifact is a cached rendered experiment.
type artifact struct {
	contentType string
	body        []byte
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.known[id] {
		s.writeError(w, &api.Error{Code: "not_found", Message: fmt.Sprintf("unknown experiment %q", id)})
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "text", "markdown", "csv":
	default:
		s.writeError(w, &api.Error{Code: "invalid_request",
			Message: fmt.Sprintf("unknown format %q (json, text, markdown, csv)", format)})
		return
	}
	key, err := api.CanonicalKey("/v1/experiments", struct {
		ID     string `json:"id"`
		Format string `json:"format"`
	}{id, format})
	if err != nil {
		s.writeError(w, &api.Error{Code: "internal", Message: err.Error()})
		return
	}
	if v, ok := s.artifacts.Get(key); ok {
		a := v.(artifact)
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", a.contentType)
		_, _ = w.Write(a.body)
		return
	}
	a, err := renderArtifact(id, format)
	if err != nil {
		s.writeError(w, &api.Error{Code: "internal", Message: err.Error()})
		return
	}
	s.artifacts.Put(key, a)
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", a.contentType)
	_, _ = w.Write(a.body)
}

// renderArtifact regenerates one experiment in the requested format.
func renderArtifact(id, format string) (artifact, error) {
	if format == "json" {
		res, err := api.Experiment(id)
		if err != nil {
			return artifact{}, err
		}
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, res); err != nil {
			return artifact{}, err
		}
		return artifact{contentType: "application/json", body: buf.Bytes()}, nil
	}
	out, err := experiments.Run(id)
	if err != nil {
		return artifact{}, err
	}
	var buf bytes.Buffer
	switch format {
	case "text":
		err = out.Render(&buf)
	case "markdown":
		err = out.RenderMarkdown(&buf)
	case "csv":
		err = out.RenderCSV(&buf)
	}
	if err != nil {
		return artifact{}, err
	}
	ct := "text/plain; charset=utf-8"
	if format == "csv" {
		ct = "text/csv"
	}
	return artifact{contentType: ct, body: buf.Bytes()}, nil
}
