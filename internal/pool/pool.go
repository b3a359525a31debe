// Package pool runs a fixed-size worker pool over an indexed range of
// independent cells — the execution engine behind the parameter sweeps
// and Monte-Carlo draws. Workers pull chunked index ranges off a
// shared atomic counter (one goroutine per CPU instead of one per
// cell), and results are deterministic regardless of scheduling: every
// cell below the lowest failing index is evaluated, and that index's
// error is the one reported.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Eval evaluates one cell.
type Eval func(i int) error

// Run evaluates cells 0..n-1 with eval, which must be safe for
// concurrent use. chunk is how many consecutive cells one worker
// claims per fetch: large enough to keep contention on the shared
// counter negligible, small enough to balance uneven per-cell cost.
func Run(n, chunk int, eval Eval) error {
	return RunWorkers(n, chunk, func() Eval { return eval })
}

// RunWorkers is Run for evaluators that need per-worker scratch state
// (a reusable map, a resettable RNG): newWorker is called once per
// worker goroutine and the returned Eval is only ever used from that
// goroutine.
func RunWorkers(n, chunk int, newWorker func() Eval) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	// Shrink the chunk when n is small relative to the worker count:
	// a 12-cell range with chunk 8 would otherwise run on 2 workers no
	// matter how expensive each cell is.
	if c := n / workers; c < chunk {
		chunk = c
	}
	if chunk < 1 {
		chunk = 1
	}
	if m := (n + chunk - 1) / chunk; workers > m {
		workers = m
	}

	// minFail is the lowest failing index seen so far (n = none) and
	// firstErr its error; both move together under mu, so one slot
	// holds the reported error whatever n is. Chunks are claimed in
	// increasing order, so once a chunk starts at or past minFail
	// nothing it could compute changes the outcome and workers stop
	// claiming — a study that fails on an early draw does not grind
	// through the full range first. minFail only decreases, so every
	// index below its final value is evaluated and the reported error
	// is deterministically the lowest one.
	var next, minFail atomic.Int64
	minFail.Store(int64(n))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval := newWorker()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n || int64(start) >= minFail.Load() {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if err := eval(i); err != nil {
						mu.Lock()
						if int64(i) < minFail.Load() {
							minFail.Store(int64(i))
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
