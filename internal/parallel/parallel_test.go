package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Fatalf("Workers(-3) = %d, want %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 503
		var hits [n]atomic.Int32
		if err := For(context.Background(), n, workers, func(_, i int) {
			hits[i].Add(1)
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkerIDsAreStable(t *testing.T) {
	// Every invocation with a given worker ID must run on that worker's
	// goroutine: per-worker accumulators appended here without locking
	// must survive the race detector.
	const n, workers = 1000, 8
	acc := make([][]int, workers)
	if err := For(context.Background(), n, workers, func(w, i int) {
		acc[w] = append(acc[w], i)
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range acc {
		total += len(a)
	}
	if total != n {
		t.Fatalf("accumulated %d items, want %d", total, n)
	}
}

func TestForSequentialWhenSingleWorker(t *testing.T) {
	var order []int
	if err := For(context.Background(), 10, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("worker id %d on sequential path", w)
		}
		order = append(order, i)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential path out of order: %v", order)
		}
	}
}

func TestForHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	err := For(ctx, 100000, 4, func(_, i int) {
		if done.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done.Load() == 100000 {
		t.Fatal("cancellation did not stop the loop early")
	}
}

// TestForCanceledDuringLastItem: a ctx canceled while the last item runs
// fails the loop at every worker count, since that item may have stopped
// short; no later check between items would see it.
func TestForCanceledDuringLastItem(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 8
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := For(ctx, n, workers, func(_, i int) {
				ran.Add(1)
				if i == n-1 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("%d of %d items ran", got, n)
			}
		})
	}
}

func TestForZeroItems(t *testing.T) {
	if err := For(context.Background(), 0, 8, func(_, _ int) {
		t.Fatal("fn called for empty range")
	}); err != nil {
		t.Fatal(err)
	}
}
