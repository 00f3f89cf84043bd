package ingest

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// lruCache memoizes Resource.Context lookups with a bounded LRU policy.
// News streams repeat entities heavily (the same politicians, places, and
// organizations recur story after story), so after a short warm-up almost
// every expansion of an incoming document hits the cache and skips the
// resource query entirely — the streaming analogue of the paper's
// Section V-D offline precomputation. Unlike core.ResourceCache it is
// bounded (a long-running server must not grow without limit) and safe
// for concurrent use by the intake worker pool.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key string
	ctx []string
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// LookupErr returns the context terms for (resource, term), querying the
// fallible resource on a miss. Errors are returned to the caller and
// NEVER cached — a failed expansion is retried on the next lookup, so a
// recovering resource starts answering again immediately. Two workers
// missing the same key concurrently may both query the resource; lookups
// are idempotent, so the duplicate work is harmless and cheaper than
// holding the lock across the query.
func (c *lruCache) LookupErr(ctx context.Context, r core.ResourceErr, term string) ([]string, error) {
	key := r.Name() + "\x00" + term
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		out := el.Value.(*cacheEntry).ctx
		c.mu.Unlock()
		c.hits.Add(1)
		return out, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)

	out, err := r.ContextErr(ctx, term)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok { // a concurrent miss filled it first
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).ctx, nil
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, ctx: out})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
	}
	return out, nil
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns cumulative (hits, misses).
func (c *lruCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
