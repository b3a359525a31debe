package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"greenfpga/api"
	"greenfpga/internal/jobs"
	"greenfpga/internal/store"
)

// historyJobs is the size of the durable-jobs store history: finished
// sweep jobs whose records the server replays at every start.
const historyJobs = 32

// historySalt offsets history salts from every timed and priming salt.
const historySalt = 1 << 31

// writeHistory writes the seed's store history into dir: historyJobs
// finished jobs, each laid down in the order the jobs manager writes
// one (see layDown), with the real chunk payloads and result bytes.
// IDs and timestamps derive from the seed, so the same seed writes the
// same log; the manager itself cannot, since it draws random IDs and
// stamps wall-clock times.
func writeHistory(dir string, seed uint64) (err error) {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	ev := api.NewEvaluator(64)
	base := saltBase(seed)
	r := rng(seed, historySalt)
	for j := 0; j < historyJobs; j++ {
		h, err := newHistoryJob(ev, r, jobBody(base+historySalt+uint64(j)), j)
		if err != nil {
			return fmt.Errorf("history job %d: %w", j, err)
		}
		if err := h.layDown(st, nil, -1); err != nil {
			return err
		}
	}
	return nil
}

// historyJob is one finished job's durable footprint: its record and
// the real chunk payloads and result bytes of its study.
type historyJob struct {
	rec    jobs.Record
	chunks [][]byte
	result []byte
}

// newHistoryJob computes the study of a sweep job body.
func newHistoryJob(ev *api.Evaluator, r *rand.Rand, body []byte, j int) (*historyJob, error) {
	ctx := context.Background()
	study, err := ev.NewStudy(ctx, "sweep", body)
	if err != nil {
		return nil, err
	}
	h := &historyJob{
		rec: jobs.Record{
			ID: fmt.Sprintf("%016x", r.Uint64()), Endpoint: study.Endpoint, Request: body,
			Key: study.Key, Chunks: study.NumChunks(),
			CreatedUnixMs: int64(1_700_000_000_000 + j*1000),
		},
		chunks: make([][]byte, study.NumChunks()),
	}
	h.rec.UpdatedUnixMs = h.rec.CreatedUnixMs
	for i := range h.chunks {
		if h.chunks[i], err = study.ComputeChunk(ctx, i); err != nil {
			return nil, err
		}
	}
	if h.result, err = study.Finalize(ctx, h.chunks); err != nil {
		return nil, err
	}
	return h, nil
}

// layDown issues the store calls of one job in the order
// jobs.Manager's Submit, run and finish do — queued record, running
// record, then per chunk a checkpoint lookup and the checkpoint, the
// result, the checkpoint tombstones, the done record and a Sync — with
// a span around each call when tr is non-nil.
func (h *historyJob) layDown(st *store.Store, tr *tracer, req int) error {
	call := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		id := tr.begin(name, -1, req)
		defer tr.end(id)
		return f()
	}
	put := func(key string, val []byte) error {
		return call("store.put", func() error { return st.Put(key, val) })
	}
	rec := h.rec
	for _, state := range []jobs.State{jobs.StateQueued, jobs.StateRunning} {
		rec.State = state
		raw, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := put("job:"+rec.ID, raw); err != nil {
			return err
		}
	}
	for i, c := range h.chunks {
		var found bool
		if err := call("store.get", func() (err error) {
			_, found, err = st.Get(ckptKey(rec.ID, i))
			return err
		}); err != nil {
			return err
		}
		if found {
			return fmt.Errorf("job %s: checkpoint %d already stored", rec.ID, i)
		}
		if err := put(ckptKey(rec.ID, i), c); err != nil {
			return err
		}
	}
	if err := put("result:"+rec.Key, h.result); err != nil {
		return err
	}
	for i := range h.chunks {
		if err := call("store.delete", func() error { return st.Delete(ckptKey(rec.ID, i)) }); err != nil {
			return err
		}
	}
	rec.State, rec.ChunksDone = jobs.StateDone, rec.Chunks
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := put("job:"+rec.ID, raw); err != nil {
		return err
	}
	return call("store.sync", st.Sync)
}

// ckptKey is the jobs manager's checkpoint key for chunk i of job id.
func ckptKey(id string, i int) string { return "ckpt:" + id + ":" + strconv.Itoa(i) }
