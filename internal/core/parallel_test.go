package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/textdb"
)

// countingResource records how many times each term is derived, safely,
// so tests can assert the cache's single-flight guarantee under load.
type countingResource struct {
	name  string
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingResource) Name() string { return c.name }
func (c *countingResource) Context(term string) []string {
	c.mu.Lock()
	c.calls[term]++
	c.mu.Unlock()
	return []string{"ctx-a-" + term, "ctx-b-" + term}
}

// TestResourceCacheConcurrentHammer is the race regression test for the
// cache shared by the derive-context workers: 16 goroutines hammer
// overlapping terms through one cache. Run under -race (CI does) it
// fails on any unsynchronized access; the call counts additionally prove
// single-flight — every term is derived exactly once no matter how many
// workers miss it at the same instant.
func TestResourceCacheConcurrentHammer(t *testing.T) {
	res := &countingResource{name: "r", calls: map[string]int{}}
	cache := NewResourceCache()
	const goroutines = 16
	const iters = 400
	const distinctTerms = 37

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				term := fmt.Sprintf("term%02d", (g+i)%distinctTerms)
				got, err := cache.LookupErr(context.Background(), AsResourceErr(res), term)
				if err != nil || len(got) != 2 || got[0] != "ctx-a-"+term {
					t.Errorf("wrong context for %q: %v, %v", term, got, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	res.mu.Lock()
	defer res.mu.Unlock()
	if len(res.calls) != distinctTerms {
		t.Fatalf("derived %d distinct terms, want %d", len(res.calls), distinctTerms)
	}
	for term, n := range res.calls {
		if n != 1 {
			t.Fatalf("term %q derived %d times, want exactly 1 (single-flight)", term, n)
		}
	}
	if got := cache.Len(); got != distinctTerms {
		t.Fatalf("cache.Len() = %d, want %d", got, distinctTerms)
	}
}

// slowFirstResource blocks the first derivation until released, so a
// test can pile concurrent lookups of the same term onto an in-flight
// derivation and verify they all wait for (and share) its result.
type slowFirstResource struct {
	name    string
	started chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func (s *slowFirstResource) Name() string { return s.name }
func (s *slowFirstResource) Context(term string) []string {
	if s.calls.Add(1) == 1 {
		close(s.started)
		<-s.release
	}
	return []string{"v:" + term}
}

func TestResourceCacheSingleFlightSharesInFlightDerivation(t *testing.T) {
	res := &slowFirstResource{name: "slow", started: make(chan struct{}), release: make(chan struct{})}
	cache := NewResourceCache()

	first := make(chan []string, 1)
	go func() {
		out, _ := cache.LookupErr(context.Background(), AsResourceErr(res), "hot")
		first <- out
	}()
	<-res.started // the derivation is in flight

	var wg sync.WaitGroup
	results := make([][]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = cache.LookupErr(context.Background(), AsResourceErr(res), "hot")
		}(i)
	}
	close(res.release)
	wg.Wait()
	want := <-first
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("waiter %d got %v, want %v", i, got, want)
		}
	}
	if n := res.calls.Load(); n != 1 {
		t.Fatalf("hot term derived %d times, want 1", n)
	}
}

// workerCorpus builds a corpus large enough that every worker count
// exercises real sharding.
func workerCorpus(t *testing.T) (*textdb.Corpus, []Extractor, []Resource) {
	t.Helper()
	var texts []string
	for i := 0; i < 90; i++ {
		texts = append(texts, fmt.Sprintf("entity%d met entity%d about issue %d in city%d", i%7, (i+2)%7, i, i%5))
	}
	corpus := miniCorpus(texts...)
	var terms []string
	ctx := map[string][]string{}
	for i := 0; i < 7; i++ {
		term := fmt.Sprintf("entity%d", i)
		terms = append(terms, term)
		ctx[term] = []string{fmt.Sprintf("general%d", i%3), "people", fmt.Sprintf("broad%d", i%2)}
	}
	ex := fakeExtractor{name: "a", terms: terms}
	res := &fakeResource{name: "r", ctx: ctx}
	return corpus, []Extractor{ex}, []Resource{res}
}

func TestIdentifyImportantWorkersEquivalence(t *testing.T) {
	corpus, exs, _ := workerCorpus(t)
	seq, _, err := IdentifyImportantReport(context.Background(), corpus, exs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		par, _, err := IdentifyImportantReport(context.Background(), corpus, exs, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: important terms diverge from sequential", workers)
		}
	}
}

func TestDeriveContextWorkersEquivalence(t *testing.T) {
	corpus, exs, ress := workerCorpus(t)
	important, _, err := IdentifyImportantReport(context.Background(), corpus, exs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, _, err := DeriveContextFallbackReport(context.Background(), important, ress, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, _, _, err := DeriveContextFallbackReport(context.Background(), important, ress, nil, NewResourceCache(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: context rows diverge from sequential", workers)
		}
	}
}

func TestAnalyzeWithWorkersEquivalence(t *testing.T) {
	corpus, exs, ress := workerCorpus(t)
	important, _, _ := IdentifyImportantReport(context.Background(), corpus, exs, 0, 1)
	ctxRows, _, _, _ := DeriveContextFallbackReport(context.Background(), important, ress, nil, nil, 1)
	seq := AnalyzeWith(corpus, ctxRows, 0, AnalyzeOptions{Workers: 1})
	for _, workers := range []int{2, 4, 16} {
		par := AnalyzeWith(corpus, ctxRows, 0, AnalyzeOptions{Workers: workers})
		if !reflect.DeepEqual(seq.Candidates, par.Candidates) {
			t.Fatalf("workers=%d: candidate ranking diverges from sequential", workers)
		}
		if !reflect.DeepEqual(seq.Facets, par.Facets) {
			t.Fatalf("workers=%d: facets diverge from sequential", workers)
		}
	}
}

func TestPipelineWorkersEquivalence(t *testing.T) {
	corpus, exs, ress := workerCorpus(t)
	run := func(workers int) *Result {
		p, err := New(Config{Extractors: exs, Resources: ress, TopK: 25, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq.Facets, par.Facets) {
		t.Fatal("facets diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seq.Candidates, par.Candidates) {
		t.Fatal("candidates diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seq.Important, par.Important) {
		t.Fatal("important-term rows diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seq.Context, par.Context) {
		t.Fatal("context rows diverge between Workers=1 and Workers=8")
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	_, err := New(Config{
		Extractors: []Extractor{fakeExtractor{name: "a"}},
		Resources:  []Resource{&fakeResource{name: "r"}},
		Workers:    -2,
	})
	if err == nil {
		t.Fatal("expected error for negative Workers")
	}
}

func TestExpandDocTerms(t *testing.T) {
	dict := textdb.NewDictionary()
	a, b := dict.Intern("a"), dict.Intern("b")
	ctxSet := map[textdb.TermID]bool{}
	merged := ExpandDocTermsAppend(nil, dict, []textdb.TermID{a, b}, []string{"b", "c", "c", "a", "d"}, nil, ctxSet)
	c, d := dict.Lookup("c"), dict.Lookup("d")
	want := []textdb.TermID{a, b, c, d}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged = %v, want %v", merged, want)
	}
	// Only context-only terms enter the candidate set.
	if len(ctxSet) != 2 || !ctxSet[c] || !ctxSet[d] {
		t.Fatalf("ctxSet = %v, want {c, d}", ctxSet)
	}
	// Reused scratch must be cleared between documents.
	scratch := map[textdb.TermID]bool{a: true}
	merged = ExpandDocTermsAppend(merged[:0], dict, nil, []string{"a"}, scratch, nil)
	if !reflect.DeepEqual(merged, []textdb.TermID{a}) {
		t.Fatalf("stale scratch leaked: %v", merged)
	}
}
