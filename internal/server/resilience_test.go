package server

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflightCoalescesIdenticalMisses proves the acceptance
// behavior: N concurrent identical cache misses cost exactly one
// evaluation. A barrier in the compute wrap holds every request until
// all have arrived, so they reach the singleflight group together;
// the leader answers X-Cache: miss, the rest coalesced, and all
// bodies are byte-identical.
func TestSingleflightCoalescesIdenticalMisses(t *testing.T) {
	const n = 8
	var arrived sync.WaitGroup
	arrived.Add(n)
	_, hts := newTestServer(t, Options{
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrived.Done()
				arrived.Wait()
				next.ServeHTTP(w, r)
			})
		},
	})
	// ~0.3s of Monte-Carlo per evaluation on 2 vCPUs (100-application
	// draws): long enough that every request released by the barrier
	// joins the live flight.
	const body = `{"samples":20000,"seed":11,"napps":100}`
	var wg sync.WaitGroup
	headers := make([]string, n)
	bodies := make([][]byte, n)
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, data := postRaw(t, hts.URL+"/v1/mc", body)
			if code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, code, data)
				return
			}
			headers[i] = hdr.Get("X-Cache")
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	var misses, coalesced int
	for i, h := range headers {
		switch h {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: X-Cache=%q, want miss or coalesced", i, h)
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("request %d: body diverged from request 0", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d evaluations ran, want exactly 1 (singleflight)", misses)
	}
	if coalesced != n-1 {
		t.Errorf("%d coalesced, want %d", coalesced, n-1)
	}
	if got := metricValue(t, hts, "greenfpga_coalesced_total"); got != n-1 {
		t.Errorf("greenfpga_coalesced_total = %d, want %d", got, n-1)
	}
}

// TestDeadlineCancelsCompute proves the other acceptance behavior: a
// compute overrunning its deadline answers a 504 deadline_exceeded
// envelope promptly, and the workers observe the cancellation — the
// handler goroutine finishes in seconds where the uncancelled
// evaluation (500k Monte-Carlo samples of 1000 applications, ~55s on
// 2 vCPUs and ~27s on 4) could not have.
func TestDeadlineCancelsCompute(t *testing.T) {
	handlerDone := make(chan time.Time, 1)
	_, hts := newTestServer(t, Options{
		RequestTimeout: 150 * time.Millisecond,
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				next.ServeHTTP(w, r)
				handlerDone <- time.Now()
			})
		},
	})
	start := time.Now()
	code, _, data := postRaw(t, hts.URL+"/v1/mc", `{"samples":500000,"seed":1,"napps":1000}`)
	responded := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %s, want 504", code, data)
	}
	if e := decodeErr(t, data); e.Code != "deadline_exceeded" {
		t.Fatalf("envelope code = %q, want deadline_exceeded", e.Code)
	}
	if responded > 5*time.Second {
		t.Errorf("504 took %v, want shortly after the 150ms deadline", responded)
	}
	select {
	case at := <-handlerDone:
		if took := at.Sub(start); took > 8*time.Second {
			t.Errorf("compute kept running %v after cancellation", took)
		}
	case <-time.After(15 * time.Second):
		t.Error("compute never observed the canceled context")
	}
	if got := metricValue(t, hts, "greenfpga_deadline_exceeded_total"); got != 1 {
		t.Errorf("greenfpga_deadline_exceeded_total = %d, want 1", got)
	}
}

// TestShedWhenSaturated proves the load-shedding behavior (and the
// limiter-saturation satellite): with one slot held and a 100ms queue
// bound, the next request is shed with 503 + Retry-After within the
// wait bound, and the blocked request still completes.
func TestShedWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	var first atomic.Bool
	_, hts := newTestServer(t, Options{
		MaxConcurrent: 1,
		MaxQueueWait:  100 * time.Millisecond,
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if first.CompareAndSwap(false, true) {
					<-release
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
	// Wait until the first request holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for !first.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	code, hdr, data := postRaw(t, hts.URL+"/v1/crossover", `{"domain":"ImgProc"}`)
	waited := time.Since(start)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d %s, want 503", code, data)
	}
	if e := decodeErr(t, data); e.Code != "overloaded" {
		t.Errorf("envelope code = %q, want overloaded", e.Code)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	if waited < 100*time.Millisecond || waited > 3*time.Second {
		t.Errorf("shed after %v, want just past the 100ms queue bound", waited)
	}
	close(release)
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("blocked request finished %d, want 200", code)
	}
	if got := metricValue(t, hts, "greenfpga_shed_total"); got != 1 {
		t.Errorf("greenfpga_shed_total = %d, want 1", got)
	}
}

// TestPanicRecoveredIntoEnvelope proves a panicking compute handler
// becomes a clean 500 internal envelope, is counted, and leaves the
// server serving.
func TestPanicRecoveredIntoEnvelope(t *testing.T) {
	_, hts := newTestServer(t, Options{
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				panic("kaboom")
			})
		},
	})
	code, _, data := postJSON(t, hts.URL+"/v1/evaluate", evaluateBody())
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d %s, want 500", code, data)
	}
	e := decodeErr(t, data)
	if e.Code != "internal" || !strings.Contains(e.Message, "panic serving /v1/evaluate") {
		t.Fatalf("envelope = %+v, want internal panic message", e)
	}
	code, _, _ = get(t, hts.URL+"/healthz")
	if code != http.StatusOK {
		t.Error("server unhealthy after a recovered panic")
	}
	if got := metricValue(t, hts, "greenfpga_panics_total"); got != 1 {
		t.Errorf("greenfpga_panics_total = %d, want 1", got)
	}
}

// TestQueueWaitAdmitsWhenSlotFrees checks bounded queueing is a
// queue, not a door: a request arriving while the only slot is held
// is admitted (not shed) when the slot frees within the bound.
func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	release := make(chan struct{})
	var first atomic.Bool
	_, hts := newTestServer(t, Options{
		MaxConcurrent: 1,
		MaxQueueWait:  5 * time.Second,
		ComputeWrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if first.CompareAndSwap(false, true) {
					<-release
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
	// Free the slot shortly after the second request queues.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	code, _, data := postRaw(t, hts.URL+"/v1/crossover", `{"domain":"ImgProc"}`)
	if code != http.StatusOK {
		t.Fatalf("queued request: %d %s, want 200 after the slot freed", code, data)
	}
	if got := <-blocked; got != http.StatusOK {
		t.Errorf("blocked request finished %d, want 200", got)
	}
}

// TestEndpointTimeoutOverride checks a per-endpoint deadline wins
// over the global one.
func TestEndpointTimeoutOverride(t *testing.T) {
	_, hts := newTestServer(t, Options{
		RequestTimeout:   50 * time.Millisecond,
		EndpointTimeouts: map[string]time.Duration{"/v1/mc": 30 * time.Second},
	})
	// ~0.3s of compute on 2 vCPUs (100-application draws): over the
	// 50ms global deadline, far under the 30s override.
	code, _, data := postRaw(t, hts.URL+"/v1/mc", `{"samples":20000,"seed":4,"napps":100}`)
	if code != http.StatusOK {
		t.Fatalf("mc under override: %d %s, want 200", code, data)
	}
}

// TestBodyLimitEnvelope checks the 1 MiB body cap answers the
// dedicated message, not a raw decoder error.
func TestBodyLimitEnvelope(t *testing.T) {
	_, hts := newTestServer(t, Options{})
	big := `{"filler":"` + strings.Repeat("x", maxBody+1024) + `"}`
	code, _, data := postRaw(t, hts.URL+"/v1/evaluate", big)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", code)
	}
	e := decodeErr(t, data)
	if e.Code != "invalid_request" || !strings.Contains(e.Message, "exceeds the 1 MiB limit") {
		t.Fatalf("envelope = %+v, want the 1 MiB limit message", e)
	}
}
