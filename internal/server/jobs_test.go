package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"greenfpga/api"
	"greenfpga/internal/store"
)

// newJobServer is newTestServer plus a durable store in a temp dir.
func newJobServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, hts := newTestServer(t, Options{Store: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		_ = st.Close()
	})
	return s, hts.URL
}

// submitJob posts a job and returns its 202 status document.
func submitJob(t *testing.T, base, endpoint, request string) api.JobStatus {
	t.Helper()
	code, _, body := postRaw(t, base+"/v1/jobs",
		`{"endpoint": "`+endpoint+`", "request": `+request+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, body := get(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return api.JobStatus{}
}

// TestJobResultMatchesSyncEndpoint is the end-to-end byte-identity
// contract: a job's result is exactly what the synchronous endpoint
// answers for the same request — and once the job is done, the
// synchronous endpoint itself serves those bytes from the store tier.
func TestJobResultMatchesSyncEndpoint(t *testing.T) {
	_, base := newJobServer(t, t.TempDir())
	const req = `{"domain": "DNN", "samples": 9000, "seed": 42}`

	st := submitJob(t, base, "mc", req)
	if st.State != "queued" && st.State != "running" {
		t.Fatalf("submitted state %q", st.State)
	}
	if st.Endpoint != "/v1/mc" || st.Chunks != 3 || st.Key == "" {
		t.Fatalf("submitted status: %+v", st)
	}
	fin := waitJob(t, base, st.ID)
	if fin.State != "done" || fin.ChunksDone != fin.Chunks {
		t.Fatalf("final status: %+v", fin)
	}

	code, h, jobBody := get(t, base+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, jobBody)
	}
	if h.Get("X-Cache") != "store" || h.Get("Content-Type") != "application/json" {
		t.Fatalf("result headers: %v", h)
	}

	// The synchronous endpoint must answer the job's bytes from the
	// durable tier without recomputing.
	code, h, syncBody := postRaw(t, base+"/v1/mc", req)
	if code != http.StatusOK {
		t.Fatalf("sync: %d %s", code, syncBody)
	}
	if h.Get("X-Cache") != "store" {
		t.Fatalf("sync request recomputed: X-Cache=%q", h.Get("X-Cache"))
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("job result differs from sync response:\njob:  %.200s\nsync: %.200s", jobBody, syncBody)
	}
}

// TestEveryEndpointRoutedAndJobbable walks the api endpoint table: each
// entry answers its synchronous route (so server.New registered it)
// and, submitted by name to POST /v1/jobs, finishes with a result
// byte-identical to that synchronous answer.
func TestEveryEndpointRoutedAndJobbable(t *testing.T) {
	_, base := newJobServer(t, t.TempDir())
	bodies := computeBodies(t)
	for _, ep := range api.Endpoints {
		t.Run(ep.Name, func(t *testing.T) {
			code, _, want := postRaw(t, base+ep.Path, bodies[ep.Path])
			if code != http.StatusOK {
				t.Fatalf("POST %s: %d %s", ep.Path, code, want)
			}
			st := waitJob(t, base, submitJob(t, base, ep.Name, bodies[ep.Path]).ID)
			if st.State != "done" || st.Endpoint != ep.Path {
				t.Fatalf("job: %+v", st)
			}
			code, _, got := get(t, base+"/v1/jobs/"+st.ID+"/result")
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("job result (%d) differs from the sync answer:\n%.200s\nvs\n%.200s", code, got, want)
			}
		})
	}
}

// TestStoreTierSurvivesRestart computes synchronously on one server,
// then serves the same request from a second server over the same
// store — the persistent result tier.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const req = `{"domain": "Crypto", "samples": 2000, "seed": 5}`

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, hts1 := newTestServer(t, Options{Store: st1})
	code, h, first := postRaw(t, hts1.URL+"/v1/mc", req)
	if code != http.StatusOK || h.Get("X-Cache") != "miss" {
		t.Fatalf("first compute: %d X-Cache=%q", code, h.Get("X-Cache"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	_, base := newJobServer(t, dir)
	code, h, second := postRaw(t, base+"/v1/mc", req)
	if code != http.StatusOK {
		t.Fatalf("after restart: %d %s", code, second)
	}
	if h.Get("X-Cache") != "store" {
		t.Fatalf("after restart X-Cache=%q, want store (no recompute)", h.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("restarted bytes differ")
	}
}

// TestJobNDJSONResult pins the streaming frame: an envelope line with
// the point count, then one point per line, together carrying the same
// points as the JSON document.
func TestJobNDJSONResult(t *testing.T) {
	_, base := newJobServer(t, t.TempDir())
	st := submitJob(t, base, "sweep",
		`{"domain": "DNN", "axis": "lifetime", "from": 1, "to": 10, "points": 2500}`)
	if fin := waitJob(t, base, st.ID); fin.State != "done" {
		t.Fatalf("final: %+v", fin)
	}

	_, _, jsonBody := get(t, base+"/v1/jobs/"+st.ID+"/result")
	var doc api.SweepResponse
	if err := json.Unmarshal(jsonBody, &doc); err != nil {
		t.Fatal(err)
	}

	code, h, nd := get(t, base+"/v1/jobs/"+st.ID+"/result?format=ndjson")
	if code != http.StatusOK {
		t.Fatalf("ndjson: %d %s", code, nd)
	}
	if ct := h.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson Content-Type %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(string(nd), "\n"), "\n")
	if len(lines) != 1+len(doc.Points) {
		t.Fatalf("%d ndjson lines for %d points", len(lines), len(doc.Points))
	}
	var env struct {
		Domain string `json:"domain"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Domain != doc.Domain || env.Points != len(doc.Points) {
		t.Fatalf("envelope %s vs doc %s/%d", lines[0], doc.Domain, len(doc.Points))
	}
	for _, i := range []int{0, len(doc.Points) - 1} {
		want, err := api.EncodeJSON(&doc.Points[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := lines[1+i] + "\n"; got != string(want) {
			t.Fatalf("point line %d %q != document point %q", i, got, want)
		}
	}

	// NDJSON framing is sweep-only.
	mc := submitJob(t, base, "mc", `{"domain": "DNN", "samples": 1000}`)
	waitJob(t, base, mc.ID)
	if code, _, body := get(t, base+"/v1/jobs/"+mc.ID+"/result?format=ndjson"); code != http.StatusBadRequest {
		t.Fatalf("mc ndjson: %d %s", code, body)
	}
}

// TestJobLifecycleEndpoints covers list, cancel-by-delete, and the
// error envelopes for unknown ids and not-done results.
func TestJobLifecycleEndpoints(t *testing.T) {
	_, base := newJobServer(t, t.TempDir())

	if code, _, body := postRaw(t, base+"/v1/jobs", `{"endpoint": "bogus", "request": {}}`); code != http.StatusBadRequest {
		t.Fatalf("bogus endpoint: %d %s", code, body)
	}
	if code, _, body := postRaw(t, base+"/v1/jobs", `{"request": {}}`); code != http.StatusBadRequest {
		t.Fatalf("missing endpoint: %d %s", code, body)
	}
	if code, _, _ := get(t, base+"/v1/jobs/deadbeef00000000"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}

	st := submitJob(t, base, "mc", `{"domain": "DNN", "samples": 5000, "seed": 1}`)
	code, _, body := get(t, base+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list api.JobList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == st.ID
	}
	if !found {
		t.Fatalf("job %s missing from list %s", st.ID, body)
	}

	waitJob(t, base, st.ID)
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code, _, _ := get(t, base+"/v1/jobs/"+st.ID); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", code)
	}
}

// TestShutdownRefusesJobSubmissions pins the drain ordering: once
// Shutdown begins, new submissions answer 503 while the jobs manager
// parks in-flight work resumable.
func TestShutdownRefusesJobSubmissions(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, hts := newTestServer(t, Options{Store: st})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, body := postRaw(t, hts.URL+"/v1/jobs",
		`{"endpoint": "mc", "request": {"domain": "DNN", "samples": 1000}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: %d %s", code, body)
	}
	if e := decodeErr(t, body); e.Code != "overloaded" {
		t.Fatalf("error code %q", e.Code)
	}
}

// TestJobResumesAcrossRestart is the acceptance run: a 200k-sample
// Monte-Carlo job survives a server kill mid-study, resumes from its
// chunk checkpoints on a fresh process over the same store, and its
// final bytes are identical to the synchronous /v1/mc response — here
// computed independently by a storeless server, so the comparison
// cannot be satisfied by the durable tier echoing itself.
func TestJobResumesAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second Monte-Carlo study")
	}
	dir := t.TempDir()
	const req = `{"domain": "DNN", "samples": 200000, "seed": 7}`

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, hts1 := newTestServer(t, Options{Store: st1})
	sub := submitJob(t, hts1.URL, "mc", req)
	if sub.Chunks < 40 {
		t.Fatalf("200k samples produced only %d chunks; the kill window is too small", sub.Chunks)
	}

	// Let a few chunks checkpoint, then kill the server mid-study.
	var progressed int
	deadline := time.Now().Add(30 * time.Second)
	for progressed < 3 {
		if !time.Now().Before(deadline) {
			t.Fatal("job made no chunk progress")
		}
		code, _, body := get(t, hts1.URL+"/v1/jobs/"+sub.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "canceled":
			t.Fatalf("job reached %q before the kill; raise samples", st.State)
		}
		progressed = st.ChunksDone
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted process re-enqueues the parked job, serves the
	// checkpointed chunks from the store, and computes only the rest.
	s2, base := newJobServer(t, dir)
	fin := waitJob(t, base, sub.ID)
	if fin.State != "done" || fin.ChunksDone != fin.Chunks {
		t.Fatalf("resumed job: %+v", fin)
	}
	stats := s2.jobs.Stats()
	if stats.Resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", stats.Resumed)
	}
	if stats.ChunksSkipped < uint64(progressed) {
		t.Fatalf("resume skipped %d chunks, want >= %d (the pre-kill checkpoints)",
			stats.ChunksSkipped, progressed)
	}
	if stats.ChunksComputed >= uint64(fin.Chunks) {
		t.Fatalf("resume recomputed all %d chunks (%d computed)", fin.Chunks, stats.ChunksComputed)
	}
	code, _, jobBody := get(t, base+"/v1/jobs/"+sub.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, jobBody)
	}

	// Independent ground truth: a storeless server computes the same
	// request synchronously from scratch.
	_, plain := newTestServer(t, Options{})
	code, h, syncBody := postRaw(t, plain.URL+"/v1/mc", req)
	if code != http.StatusOK || h.Get("X-Cache") != "miss" {
		t.Fatalf("sync compute: %d X-Cache=%q", code, h.Get("X-Cache"))
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("resumed job bytes differ from sync compute:\njob:  %.200s\nsync: %.200s", jobBody, syncBody)
	}
}

// TestMetricsIncludeJobFamilies asserts the scrape grows the job and
// store families when the durable tier is on.
func TestMetricsIncludeJobFamilies(t *testing.T) {
	_, base := newJobServer(t, t.TempDir())
	st := submitJob(t, base, "mc", `{"domain": "DNN", "samples": 5000, "seed": 3}`)
	waitJob(t, base, st.ID)
	_, _, page := get(t, base+"/metrics")
	for _, want := range []string{
		`greenfpga_jobs_total{state="done"} 1`,
		`greenfpga_jobs_total{state="submitted"} 1`,
		`greenfpga_job_chunks_total{kind="computed"} 2`,
		"greenfpga_store_keys ",
		`greenfpga_store_log_bytes{section="live"}`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
