// Package parallel provides the shard-and-merge scheduling primitives
// shared by the batch pipeline (internal/core), hierarchy construction
// (internal/hierarchy), and the live-ingestion bootstrap
// (internal/ingest). The paper's pipeline is embarrassingly parallel per
// document — important-term identification (Fig. 1) and context
// derivation (Fig. 2) have no cross-document dependencies, and the
// comparative analysis (Fig. 3) folds over merged document-frequency
// tables — so one dynamic sharding loop serves every stage: items are
// handed to a bounded worker pool, each worker writes only into its own
// slots or per-worker accumulator, and the caller merges per-worker
// results in worker order, which keeps output independent of scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is taken as-is, anything
// else selects runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(worker, i) for every i in [0, n), sharded dynamically
// across the given number of workers. Worker IDs are in [0, workers),
// and every invocation with a given worker ID runs on that worker's
// goroutine, so per-worker accumulators (scratch maps, DF-delta tables,
// result slices) need no locking. With workers <= 1 the loop runs
// sequentially on the calling goroutine — the byte-for-byte sequential
// path the equivalence guarantee is stated against.
//
// ctx is checked between items on every worker; the first error observed
// aborts the loop and is returned after all workers have stopped. A ctx
// done by the end of the loop is an error too, even if every item ran:
// an item may have stopped short because ctx ended during it.
func For(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
