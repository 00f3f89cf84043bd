package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// countingResource counts real Context calls so tests can observe misses.
type countingResource struct {
	name  string
	calls atomic.Int64
}

func (r *countingResource) Name() string { return r.name }

func (r *countingResource) Context(term string) []string {
	r.calls.Add(1)
	return []string{"ctx-" + term}
}

// lookup asks c about term through a plain resource, which never fails.
func lookup(c *lruCache, r core.Resource, term string) []string {
	out, _ := c.LookupErr(context.Background(), core.AsResourceErr(r), term)
	return out
}

func TestLRUCacheHitsAndEviction(t *testing.T) {
	r := &countingResource{name: "r"}
	c := newLRUCache(2)

	lookup(c, r, "a") // miss
	lookup(c, r, "a") // hit
	lookup(c, r, "b") // miss
	lookup(c, r, "a") // hit — refreshes a's recency
	lookup(c, r, "c") // miss — evicts b (LRU)
	lookup(c, r, "a") // hit — a survived
	lookup(c, r, "b") // miss — b was evicted

	hits, misses := c.Counters()
	if hits != 3 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 3/4", hits, misses)
	}
	if got := r.calls.Load(); got != 4 {
		t.Fatalf("resource queried %d times, want 4", got)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}

func TestLRUCacheKeysByResource(t *testing.T) {
	a := &countingResource{name: "a"}
	b := &countingResource{name: "b"}
	c := newLRUCache(8)
	lookup(c, a, "term")
	lookup(c, b, "term")
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("same-term lookups collided across resources: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

// TestLRUCacheConcurrent hammers the cache from many goroutines; run
// under -race it verifies the locking discipline.
func TestLRUCacheConcurrent(t *testing.T) {
	r := &countingResource{name: "r"}
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				term := fmt.Sprintf("t%d", (g+i)%32) // half fit, half churn
				got := lookup(c, r, term)
				if len(got) != 1 || got[0] != "ctx-"+term {
					t.Errorf("wrong context for %s: %v", term, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Counters()
	if hits+misses != 1600 {
		t.Fatalf("hits+misses = %d, want 1600", hits+misses)
	}
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
