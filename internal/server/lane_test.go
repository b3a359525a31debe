package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greenfpga/api"
	"greenfpga/internal/config"
	"greenfpga/internal/store"
)

// TestHitLaneExactlyOnce drives repeated, re-spelled, evicted,
// unadmitted and malformed bodies through one small server and checks
// each request's accounting: exactly one result-cache outcome (none
// for a body that does not decode), one decode stage sample and, for
// every answer, one encode stage sample; bytes and Content-Length equal
// to the first answer of the same study; and hits answered by the hit
// lane — inside the fault wrap, ahead of the limiter and the deadline —
// once a full-path hit has indexed the body, while everything else
// takes the full path.
func TestHitLaneExactlyOnce(t *testing.T) {
	var wrapped, withDeadline atomic.Int64
	_, hts := newTestServer(t, Options{
		CacheEntries: 2,
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				wrapped.Add(1)
				if _, ok := r.Context().Deadline(); ok {
					withDeadline.Add(1)
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	eval := computeBodies(t)["/v1/evaluate"]
	evict := func() string {
		reqs := make([]api.EvaluateRequest, 2)
		for i := range reqs {
			cfg := config.Example()
			cfg.Name = fmt.Sprintf("evict-%d", i)
			reqs[i] = api.EvaluateRequest{Scenario: cfg}
		}
		var buf bytes.Buffer
		if err := api.WriteJSON(&buf, &api.BatchEvaluateRequest{Requests: reqs}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	const (
		sweepLegacy = `{"domain":"DNN","axis":"napps","to":4}`
		sweepSpec   = `{"axis":"napps","to":4,"platforms":[{"domain":"DNN","kind":"fpga"},{"domain":"DNN","kind":"asic"}],` +
			`"workload":{"lifetime_years":2,"volume":1e6}}`
		bigSweep  = `{"domain":"DNN","axis":"lifetime","from":1,"to":10,"points":10001}`
		malformed = `{"unknown_field":1}`
	)
	type lane int
	const (
		full  lane = iota // limiter, deadline, then the wrapped handler
		hit               // the hit lane: the wrap without limiter or deadline
		batch             // the batch route: its own stack, not compared
	)
	steps := []struct {
		name, path, body string
		status           int
		cache            string // expected X-Cache ("" on errors)
		lookups          int    // result-cache hits+misses
		lane             lane
		study            string // answers of one study share bytes
	}{
		{"first", "/v1/evaluate", eval, 200, "miss", 1, full, "eval"},
		// A miss indexes nothing; the full path's hit indexes the body.
		{"repeat", "/v1/evaluate", eval, 200, "hit", 1, full, "eval"},
		{"second repeat", "/v1/evaluate", eval, 200, "hit", 1, hit, "eval"},
		// The batch's two misses evict the evaluate result from the
		// two-entry LRU; its digest entry outlives it.
		{"evict", "/v1/evaluate/batch", evict, 200, "", 2, batch, "batch"},
		{"digest of evicted result", "/v1/evaluate", eval, 200, "miss", 1, full, "eval"},
		{"repeat after refill", "/v1/evaluate", eval, 200, "hit", 1, hit, "eval"},
		{"whitespace re-spelling", "/v1/evaluate", " " + eval + "\n", 200, "hit", 1, full, "eval"},
		{"repeat re-spelling", "/v1/evaluate", " " + eval + "\n", 200, "hit", 1, hit, "eval"},
		{"legacy sweep", "/v1/sweep", sweepLegacy, 200, "miss", 1, full, "sweep"},
		{"spec sweep", "/v1/sweep", sweepSpec, 200, "hit", 1, full, "sweep"},
		{"repeat spec sweep", "/v1/sweep", sweepSpec, 200, "hit", 1, hit, "sweep"},
		{"repeat legacy sweep", "/v1/sweep", sweepLegacy, 200, "hit", 1, full, "sweep"},
		{"second repeat legacy sweep", "/v1/sweep", sweepLegacy, 200, "hit", 1, hit, "sweep"},
		// Over the admission bound: served, never cached or indexed.
		{"oversized sweep", "/v1/sweep", bigSweep, 200, "miss", 1, full, "big"},
		{"repeat oversized sweep", "/v1/sweep", bigSweep, 200, "miss", 1, full, "big"},
		{"malformed", "/v1/evaluate", malformed, 400, "", 0, full, "bad"},
		{"repeat malformed", "/v1/evaluate", malformed, 400, "", 0, full, "bad"},
	}
	type answer struct {
		body          []byte
		contentLength string
	}
	first := map[string]answer{}
	counts := func() (lookups, decode, encode, queued float64) {
		sc := scrapeMetrics(t, hts)
		v := func(name string, labels ...string) float64 {
			x, _ := sc.Value(name, labels...)
			return x
		}
		return v("greenfpga_result_cache_hits_total") + v("greenfpga_result_cache_misses_total"),
			v("greenfpga_stage_duration_seconds_count", "stage", "decode"),
			v("greenfpga_stage_duration_seconds_count", "stage", "encode"),
			v("greenfpga_queue_wait_seconds_count")
	}
	for _, st := range steps {
		l0, d0, e0, q0 := counts()
		w0, dl0 := wrapped.Load(), withDeadline.Load()
		code, hdr, data := postRaw(t, hts.URL+st.path, st.body)
		l1, d1, e1, q1 := counts()
		if code != st.status {
			t.Fatalf("%s: status %d %s, want %d", st.name, code, data, st.status)
		}
		if got := hdr.Get("X-Cache"); got != st.cache {
			t.Errorf("%s: X-Cache %q, want %q", st.name, got, st.cache)
		}
		if got := l1 - l0; got != float64(st.lookups) {
			t.Errorf("%s: %g result-cache outcomes, want %d", st.name, got, st.lookups)
		}
		if got := d1 - d0; got != 1 {
			t.Errorf("%s: %g decode stage samples, want 1", st.name, got)
		}
		wantEncode := 1.0
		if code != http.StatusOK {
			wantEncode = 0 // an error envelope is written, not encoded as a result
		}
		if got := e1 - e0; got != wantEncode {
			t.Errorf("%s: %g encode stage samples, want %g", st.name, got, wantEncode)
		}
		ans := answer{data, hdr.Get("Content-Length")}
		if a, ok := first[st.study]; !ok {
			first[st.study] = ans
		} else if !bytes.Equal(ans.body, a.body) || ans.contentLength != a.contentLength {
			t.Errorf("%s: answer (%d bytes, Content-Length %q) differs from the study's first (%d bytes, %q)",
				st.name, len(ans.body), ans.contentLength, len(a.body), a.contentLength)
		}
		queued, calls, deadlined := q1-q0, wrapped.Load()-w0, withDeadline.Load()-dl0
		switch st.lane {
		case hit:
			if queued != 0 || calls != 1 || deadlined != 0 {
				t.Errorf("%s: queued %g, wrapped %d, under a deadline %d; want a hit-lane answer (0, 1, 0)",
					st.name, queued, calls, deadlined)
			}
		case full:
			if queued != 1 || calls != 1 || deadlined != 1 {
				t.Errorf("%s: queued %g, wrapped %d, under a deadline %d; want the full path (1, 1, 1)",
					st.name, queued, calls, deadlined)
			}
		}
	}
}

// TestHitLanePanicRecovered checks recovery covers the hit lane: a
// fault panicking on a body the index holds answers the 500 internal
// envelope and is counted, and the next repeat is a clean hit again.
func TestHitLanePanicRecovered(t *testing.T) {
	var boom atomic.Bool
	_, hts := newTestServer(t, Options{
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if boom.Load() {
					panic("kaboom")
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	body := computeBodies(t)["/v1/compare"]
	code, _, miss := postRaw(t, hts.URL+"/v1/compare", body)
	if code != http.StatusOK {
		t.Fatalf("miss: %d %s", code, miss)
	}
	// The full path's hit indexes the body for the lane.
	if code, hdr, _ := postRaw(t, hts.URL+"/v1/compare", body); code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: %d X-Cache=%q, want a 200 hit", code, hdr.Get("X-Cache"))
	}
	boom.Store(true)
	code, hdr, data := postRaw(t, hts.URL+"/v1/compare", body)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking hit: %d %s, want 500", code, data)
	}
	if e := decodeErr(t, data); e.Code != "internal" || !strings.Contains(e.Message, "panic serving /v1/compare") {
		t.Errorf("envelope = %+v, want the internal panic message", e)
	}
	if got := hdr.Get("X-Cache"); got != "" {
		t.Errorf("panicking hit carries X-Cache %q", got)
	}
	if got := metricValue(t, hts, "greenfpga_panics_total"); got != 1 {
		t.Errorf("greenfpga_panics_total = %d, want 1", got)
	}
	boom.Store(false)
	code, hdr, hitBody := postRaw(t, hts.URL+"/v1/compare", body)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(hitBody, miss) {
		t.Errorf("repeat after the panic: %d X-Cache=%q, identical bytes %v", code, hdr.Get("X-Cache"), bytes.Equal(hitBody, miss))
	}
}

// stallBody sends a POST to path on hts announcing a Content-Length of
// announced bytes, sends only partial, and returns the response, its
// body and how long it took to arrive (failing after 10s).
func stallBody(t *testing.T, hts *httptest.Server, path string, announced int, partial string) (*http.Response, []byte, time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", hts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: greenfpga\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, announced, partial); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("%s: no response %v after sending a stalled body: %v", path, time.Since(start), err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data, time.Since(start)
}

// TestStalledBodyAnsweredByDeadline sends bodies shorter than their
// Content-Length and stalls, on a compute endpoint, the batch endpoint
// and the job submission: the route's deadline bounds the body read,
// so the client gets a 504 deadline_exceeded envelope shortly after it
// instead of waiting on its own stalled upload.
func TestStalledBodyAnsweredByDeadline(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, hts := newTestServer(t, Options{Store: st, RequestTimeout: 300 * time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		_ = st.Close()
	})
	const partial = `{"domain"` // 9 of the 100 bytes announced
	for i, path := range []string{"/v1/compare", "/v1/evaluate/batch", "/v1/jobs"} {
		resp, data, took := stallBody(t, hts, path, 100, partial)
		if took > 5*time.Second {
			t.Errorf("%s: answered after %v, want shortly after the 300ms deadline", path, took)
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d %s, want 504", path, resp.StatusCode, data)
		}
		if e := decodeErr(t, data); e.Code != "deadline_exceeded" {
			t.Errorf("%s: envelope code %q, want deadline_exceeded", path, e.Code)
		}
		if got := metricValue(t, hts, "greenfpga_deadline_exceeded_total"); got != i+1 {
			t.Errorf("%s: greenfpga_deadline_exceeded_total = %d, want %d", path, got, i+1)
		}
	}
}

// TestStalledBodyPinsLittleMemory announces a 1 MiB body, sends 9
// bytes and stalls: the body read sizes its buffer from what arrives,
// not from the announcement, so the whole exchange up to the 504
// allocates far less than the announced MiB.
func TestStalledBodyPinsLittleMemory(t *testing.T) {
	_, hts := newTestServer(t, Options{RequestTimeout: 300 * time.Millisecond})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, data, _ := stallBody(t, hts, "/v1/compare", maxBody, `{"domain"`)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d %s, want 504", resp.StatusCode, data)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for a stalled 1 MiB announcement", allocated)
	if allocated > maxBody/4 {
		t.Errorf("allocated %d bytes before the 504, want far less than the %d announced", allocated, maxBody)
	}
}

// TestQueuedRequestOutlivesBodyReadDeadline checks the body read's
// deadline ends with the read. The request below reads its body at
// once, queues for the limiter, and is still computing when a deadline
// set at its arrival would fire; were that deadline still on the
// connection, net/http's background read would fail on it and cancel
// the request context. It must be answered. (readBody leaves lifting
// the deadline to net/http, which does so when a body reaches EOF,
// before its background read starts; this test pins that behaviour.)
func TestQueuedRequestOutlivesBodyReadDeadline(t *testing.T) {
	release := make(chan struct{})
	var first atomic.Bool
	_, hts := newTestServer(t, Options{
		MaxConcurrent:  1,
		MaxQueueWait:   10 * time.Second,
		RequestTimeout: time.Second,
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if first.CompareAndSwap(false, true) {
					<-release
				} else {
					// Admitted ~0.7s after arrival, this stall runs past
					// the 1s mark, well inside its own 1s deadline.
					select {
					case <-time.After(600 * time.Millisecond):
					case <-r.Context().Done():
					}
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	blocked := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
		blocked <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !first.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(700 * time.Millisecond)
		close(release)
	}()
	code, hdr, data := postRaw(t, hts.URL+"/v1/crossover", `{"domain":"ImgProc"}`)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("queued request: %d X-Cache=%q %s, want a 200 miss", code, hdr.Get("X-Cache"), data)
	}
	if got := <-blocked; got != http.StatusOK {
		t.Errorf("blocked request finished %d, want 200", got)
	}
}
