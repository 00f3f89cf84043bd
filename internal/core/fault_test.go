package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/textdb"
)

// fallibleRes is a scriptable ResourceErr for cache and degradation
// tests. Its behaviour per call is popped from a script; an empty script
// succeeds.
type fallibleRes struct {
	name string

	mu     sync.Mutex
	script []error // nil entry = success; errPanic sentinel = panic
	calls  int
}

var errPanic = errors.New("panic sentinel")

func (f *fallibleRes) Name() string { return f.name }

func (f *fallibleRes) Context(term string) []string {
	out, _ := f.ContextErr(context.Background(), term)
	return out
}

func (f *fallibleRes) ContextErr(ctx context.Context, term string) ([]string, error) {
	f.mu.Lock()
	f.calls++
	var step error
	if len(f.script) > 0 {
		step = f.script[0]
		f.script = f.script[1:]
	}
	f.mu.Unlock()
	switch {
	case step == nil:
		return []string{"ctx:" + term}, nil
	case errors.Is(step, errPanic):
		panic("fallibleRes: scripted panic")
	default:
		return nil, step
	}
}

func (f *fallibleRes) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestCacheErrorNotCached(t *testing.T) {
	r := &fallibleRes{name: "svc", script: []error{errors.New("boom"), nil}}
	c := NewResourceCache()
	ctx := context.Background()

	if _, err := c.LookupErr(ctx, r, "jazz"); err == nil {
		t.Fatal("want first lookup to fail")
	}
	if c.Len() != 0 {
		t.Fatalf("failed lookup left %d cache entries", c.Len())
	}
	out, err := c.LookupErr(ctx, r, "jazz")
	if err != nil {
		t.Fatalf("second lookup: %v", err)
	}
	if len(out) != 1 || out[0] != "ctx:jazz" {
		t.Fatalf("out = %v", out)
	}
	// Third lookup is served from cache: no new resource call.
	before := r.callCount()
	if _, err := c.LookupErr(ctx, r, "jazz"); err != nil {
		t.Fatal(err)
	}
	if r.callCount() != before {
		t.Fatal("cached success re-queried the resource")
	}
}

// TestCacheErrorReleasesWaiters: a leader whose derivation errors must
// not wedge concurrent waiters — they elect a new leader and retry, and
// the eventual success is cached.
func TestCacheErrorReleasesWaiters(t *testing.T) {
	const waiters = 8
	r := &fallibleRes{name: "svc", script: []error{errors.New("boom")}} // first call fails, rest succeed
	c := NewResourceCache()

	var wg sync.WaitGroup
	var succ, fail atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.LookupErr(context.Background(), r, "jazz"); err != nil {
				fail.Add(1)
			} else {
				succ.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters wedged after leader error")
	}
	// Exactly the leader that drew the scripted error fails; everyone
	// else retries into the cached success.
	if fail.Load() != 1 || succ.Load() != waiters-1 {
		t.Fatalf("succ=%d fail=%d, want %d/1", succ.Load(), fail.Load(), waiters-1)
	}
}

// TestCachePanicReleasesWaiters: a panicking leader must not wedge
// waiters either; the panic propagates to the leader's own caller only.
func TestCachePanicReleasesWaiters(t *testing.T) {
	const waiters = 8
	r := &fallibleRes{name: "svc", script: []error{errPanic}}
	c := NewResourceCache()

	var wg sync.WaitGroup
	var succ, panicked atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panicked.Add(1)
				}
			}()
			if _, err := c.LookupErr(context.Background(), r, "jazz"); err == nil {
				succ.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters wedged after leader panic")
	}
	if panicked.Load() != 1 || succ.Load() != waiters-1 {
		t.Fatalf("succ=%d panicked=%d, want %d/1", succ.Load(), panicked.Load(), waiters-1)
	}
	// And the cache is usable afterwards.
	if out, err := c.LookupErr(context.Background(), r, "jazz"); err != nil || len(out) != 1 {
		t.Fatalf("post-panic lookup = %v, %v", out, err)
	}
}

func TestCacheLookupErrCancellation(t *testing.T) {
	// A waiter blocked on a slow leader can bail out through its context.
	block := make(chan struct{})
	r := &blockingRes{block: block}
	c := NewResourceCache()

	leaderStarted := make(chan struct{})
	go func() {
		close(leaderStarted)
		c.LookupErr(context.Background(), r, "jazz")
	}()
	<-leaderStarted
	for r.started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.LookupErr(ctx, r, "jazz"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block) // release the leader
}

type blockingRes struct {
	block   chan struct{}
	started atomic.Int64
}

func (b *blockingRes) Name() string { return "blocking" }
func (b *blockingRes) Context(term string) []string {
	out, _ := b.ContextErr(context.Background(), term)
	return out
}
func (b *blockingRes) ContextErr(ctx context.Context, term string) ([]string, error) {
	b.started.Add(1)
	<-b.block
	return []string{"late"}, nil
}

// downRes always fails: a permanent outage as the degradation reporting
// sees it.
type downRes struct{ name string }

func (d downRes) Name() string { return d.name }
func (d downRes) Context(term string) []string {
	return nil
}
func (d downRes) ContextErr(ctx context.Context, term string) ([]string, error) {
	return nil, fmt.Errorf("%s: permanently down", d.name)
}

// okRes always succeeds.
type okRes struct{ name string }

func (o okRes) Name() string { return o.name }
func (o okRes) Context(term string) []string {
	return []string{o.name + " of " + term}
}

func TestDeriveContextReportDegradation(t *testing.T) {
	important := [][]string{
		{"alpha", "beta"},
		{"beta"},
		{},
		{"gamma"},
	}
	for _, workers := range []int{1, 4} {
		out, degs, _, err := DeriveContextFallbackReport(context.Background(), important,
			[]Resource{downRes{"dead"}, okRes{"live"}}, nil, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The run proceeds on the surviving resource.
		if len(out[0]) == 0 || out[0][0] != "live of alpha" {
			t.Fatalf("workers=%d: out[0] = %v", workers, out[0])
		}
		if len(degs) != 1 {
			t.Fatalf("workers=%d: degs = %+v", workers, degs)
		}
		d := degs[0]
		if d.Name != "dead" || d.Kind != "resource" {
			t.Fatalf("workers=%d: %+v", workers, d)
		}
		// 4 failed (doc, term) lookups across 3 distinct documents.
		if d.Failures != 4 || d.Docs != 3 {
			t.Fatalf("workers=%d: Failures=%d Docs=%d, want 4/3", workers, d.Failures, d.Docs)
		}
		if d.LastErr == "" {
			t.Fatalf("workers=%d: empty LastErr", workers)
		}
	}
}

// downExtractor fails every document.
type downExtractor struct{}

func (downExtractor) Name() string                 { return "dead-ex" }
func (downExtractor) Extract(text string) []string { return nil }
func (downExtractor) ExtractErr(ctx context.Context, text string) ([]string, error) {
	return nil, errors.New("dead-ex: down")
}

// okExtractor returns the document's first word.
type okExtractor struct{}

func (okExtractor) Name() string { return "ok-ex" }
func (okExtractor) Extract(text string) []string {
	terms := textdb.ExtractTerms(text)
	if len(terms) == 0 {
		return nil
	}
	return terms[:1]
}

func TestIdentifyImportantReportDegradation(t *testing.T) {
	corpus := textdb.NewCorpus()
	for i := 0; i < 5; i++ {
		corpus.Add(&textdb.Document{Title: "doc", Text: fmt.Sprintf("word%d here", i)})
	}
	for _, workers := range []int{1, 4} {
		out, degs, err := IdentifyImportantReport(context.Background(), corpus,
			[]Extractor{downExtractor{}, okExtractor{}}, 0, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, terms := range out {
			if len(terms) == 0 {
				t.Fatalf("workers=%d: doc %d got no terms from surviving extractor", workers, i)
			}
		}
		if len(degs) != 1 {
			t.Fatalf("workers=%d: degs = %+v", workers, degs)
		}
		d := degs[0]
		if d.Name != "dead-ex" || d.Kind != "extractor" || d.Failures != 5 || d.Docs != 5 {
			t.Fatalf("workers=%d: %+v", workers, d)
		}
	}
}

func TestRunContextReportsDegradations(t *testing.T) {
	corpus := textdb.NewCorpus()
	for i := 0; i < 6; i++ {
		corpus.Add(&textdb.Document{
			Title: "jazz concert",
			Text:  fmt.Sprintf("jazz concert downtown number %d", i),
		})
	}
	p, err := New(Config{
		Extractors: []Extractor{okExtractor{}},
		Resources:  []Resource{downRes{"dead"}, okRes{"live"}},
		TopK:       10,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Name != "dead" {
		t.Fatalf("Degradations = %+v", res.Degradations)
	}
}

func TestDegradationSkipsCancellation(t *testing.T) {
	// A canceled run must surface the context error, not fabricate
	// dependency degradations out of ctx.Err-caused failures.
	important := [][]string{{"a"}, {"b"}, {"c"}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, degs, _, err := DeriveContextFallbackReport(ctx, important, []Resource{okRes{"live"}}, nil, nil, 2)
	if err == nil {
		t.Fatal("want error from canceled run")
	}
	if len(degs) != 0 {
		t.Fatalf("cancellation produced degradations: %+v", degs)
	}
}
