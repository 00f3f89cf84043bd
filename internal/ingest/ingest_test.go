package ingest

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// wordExtractor marks every word important — a deterministic stand-in
// for the Fig. 1 extractors.
type wordExtractor struct{}

func (wordExtractor) Name() string { return "words" }

func (wordExtractor) Extract(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// mapResource is a thesaurus-backed stand-in for the Fig. 2 resources.
type mapResource struct {
	name string
	m    map[string][]string
}

func (r mapResource) Name() string                 { return r.name }
func (r mapResource) Context(term string) []string { return r.m[term] }

func testResource() mapResource {
	return mapResource{name: "world", m: map[string][]string{
		"chirac":   {"politicians", "france"},
		"paris":    {"france", "locations"},
		"merkel":   {"politicians", "germany"},
		"berlin":   {"germany", "locations"},
		"yankees":  {"sports", "teams"},
		"baseball": {"sports"},
	}}
}

// testDocs cycles three story templates so every context facet recurs.
func testDocs(n int) []*textdb.Document {
	// Titles stay clear of the context vocabulary: a context term that
	// already occurs in the documents gains no frequency shift and is
	// correctly rejected as a facet candidate.
	templates := []struct{ title, text string }{
		{"alpha", "Chirac spoke in Paris about the budget"},
		{"beta", "Merkel hosted a Berlin summit on trade"},
		{"gamma", "The Yankees played baseball into the night"},
	}
	base := time.Date(2006, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*textdb.Document, n)
	for i := range out {
		tpl := templates[i%len(templates)]
		out[i] = &textdb.Document{
			Title:  fmt.Sprintf("%s story %d", tpl.title, i),
			Source: "wire",
			Date:   base.AddDate(0, 0, i%28),
			Text:   tpl.text,
		}
	}
	return out
}

func testConfig() Config {
	return Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{testResource()},
		Workers:    4,
	}
}

func facetTermSet(iface *browse.Interface) map[string]bool {
	out := map[string]bool{}
	iface.Forest().Walk(func(n *hierarchy.Node, _ int) { out[n.Term] = true })
	return out
}

func drain(t *testing.T, ing *Ingester) {
	t.Helper()
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesBatch is the core correctness property: streaming
// documents through the incremental DF tables must select exactly the
// facet terms the batch pipeline selects over the same corpus.
func TestIncrementalMatchesBatch(t *testing.T) {
	const n = 42

	// Batch run.
	corpus := textdb.NewCorpus()
	for _, d := range testDocs(n) {
		corpus.Add(d)
	}
	p, err := core.New(core.Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{testResource()},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Facets) == 0 {
		t.Fatal("batch pipeline found no facet terms")
	}

	// Incremental run: bootstrap a prefix, stream the rest across several
	// epochs.
	cfg := testConfig()
	cfg.EpochDocs = 7
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(n)
	if err := ing.Bootstrap(docs[:10], false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range docs[10:] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)

	iface := ing.Current()
	if got := iface.MatchCount(browse.Selection{}); got != n {
		t.Fatalf("published %d docs, want %d", got, n)
	}
	// The incremental DF tables must select exactly the batch ranking.
	want := make([]string, len(batch.Facets))
	for i, f := range batch.Facets {
		want[i] = f.Term
	}
	got := ing.FacetTerms()
	if len(got) != len(want) {
		t.Fatalf("live selected %d facet terms %v, batch selected %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: live %q, batch %q", i, got[i], want[i])
		}
	}
	// Terms with multi-vote document support survive into the hierarchy
	// and carry documents.
	forest := facetTermSet(iface)
	for _, term := range []string{"france", "germany", "sports"} {
		if !forest[term] {
			t.Errorf("facet %q missing from the live hierarchy", term)
		}
		if iface.Count(term) == 0 {
			t.Errorf("facet %q has no documents in the live interface", term)
		}
	}
	if st := ing.Stats(); st.Epochs < 2 {
		t.Fatalf("expected >= 2 epochs (bootstrap + increments), got %d", st.Epochs)
	}

	// The live forest and every document's assignment equal a batch
	// build over the batch ranking. Streamed documents are admitted in
	// completion order, so documents are matched by title.
	votes := core.ContextVotes(batch.Important, batch.Resources, nil)
	docTerms := core.AssignDocTerms(corpus, core.CorroboratedRows(corpus.Dict(), batch.Important, votes), want)
	builder, _ := hierarchy.Lookup("subsumption")
	batchForest, err := builder.Build(context.Background(), want, docTerms, hierarchy.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if live, batch := hierarchy.FormatTree(iface.Forest()), hierarchy.FormatTree(batchForest); live != batch {
		t.Fatalf("live forest:\n%s\nbatch forest:\n%s", live, batch)
	}
	liveRows := map[string]string{}
	for d, row := range iface.DocTermRows() {
		liveRows[iface.Corpus().Doc(textdb.DocID(d)).Title] = strings.Join(row, "|")
	}
	for d, row := range docTerms {
		title := corpus.Doc(textdb.DocID(d)).Title
		if live, batch := liveRows[title], strings.Join(row, "|"); live != batch {
			t.Fatalf("%s: live assignment %q, batch %q", title, live, batch)
		}
	}
}

// TestAnalyzeMatchesCore: ingest's per-document analysis is core's
// Step 1 and Step 2. On a healthy corpus its important terms, context
// rows and votes equal IdentifyImportantReport's, DeriveContextFallback-
// Report's and ContextVotes'; under a total outage with a fallback its
// context rows and rescue count equal DeriveContextFallbackReport's.
func TestAnalyzeMatchesCore(t *testing.T) {
	ctx := context.Background()
	names, err := core.NewGlossaryExtractor("names", []string{"chirac", "berlin summit", "yankees"})
	if err != nil {
		t.Fatal(err)
	}
	more := mapResource{name: "more", m: map[string][]string{
		"chirac":        {"france", "leaders"},
		"berlin summit": {"summits", "germany"},
		"night":         {"time"},
	}}
	cfg := testConfig()
	cfg.Extractors = []core.Extractor{wordExtractor{}, names}
	cfg.Resources = []core.Resource{testResource(), more}
	docs := testDocs(9)
	corpus := textdb.NewCorpus()
	for _, d := range docs {
		corpus.Add(d)
	}
	important, _, err := core.IdentifyImportantReport(ctx, corpus, cfg.Extractors, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _, err := core.DeriveContextFallbackReport(ctx, important, cfg.Resources, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	votes := core.ContextVotes(important, cfg.Resources, nil)
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d, doc := range docs {
		a, err := ing.analyze(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.important, important[d]) {
			t.Fatalf("doc %d: important %v, core %v", d, a.important, important[d])
		}
		if !slices.Equal(a.ctx, rows[d]) {
			t.Fatalf("doc %d: context %v, core %v", d, a.ctx, rows[d])
		}
		if !maps.Equal(a.votes, votes[d]) {
			t.Fatalf("doc %d: votes %v, core %v", d, a.votes, votes[d])
		}
	}
	if votes[1]["germany"] != 3 {
		t.Fatalf("doc 1 votes %v: want germany corroborated by 3 terms", votes[1])
	}

	// Total outage: every resource is down and the fallback answers.
	down1 := &toggleResource{mapResource: testResource()}
	down2 := &toggleResource{mapResource: more}
	down1.down.Store(true)
	down2.down.Store(true)
	cfg.Resources = []core.Resource{down1, down2}
	cfg.Fallback = mapResource{name: "corpus", m: map[string][]string{
		"chirac": {"politicians"},
		"paris":  {"france", "politicians"},
		"night":  {"time"},
	}}
	rows, _, rescued, err := core.DeriveContextFallbackReport(ctx, important, cfg.Resources, cfg.Fallback, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ing, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d, doc := range docs {
		a, err := ing.analyze(ctx, doc)
		if err != nil {
			t.Fatalf("doc %d dead-lettered under a rescued outage: %v", d, err)
		}
		if !slices.Equal(a.ctx, rows[d]) {
			t.Fatalf("doc %d: fallback context %v, core %v", d, a.ctx, rows[d])
		}
	}
	if got := ing.Stats().FallbackLookups; got != int64(rescued) || rescued == 0 {
		t.Fatalf("FallbackLookups = %d, core rescued %d", got, rescued)
	}
}

// TestEpochTriggerAndCache exercises the doc-count trigger and the LRU
// over repeated entities.
func TestEpochTriggerAndCache(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 5
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(nil, false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(20) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)

	st := ing.Stats()
	if st.DocsIngested != 20 || st.DocsPublished != 20 {
		t.Fatalf("ingested=%d published=%d, want 20/20", st.DocsIngested, st.DocsPublished)
	}
	if st.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2", st.Epochs)
	}
	// Every template repeats, so re-expansions must hit the cache.
	if st.CacheHitRate == 0 {
		t.Fatalf("cache hit rate is zero: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatal("expected at least one cold miss")
	}
	if got := ing.Current().MatchCount(browse.Selection{}); got != 20 {
		t.Fatalf("served %d docs, want 20", got)
	}
}

// TestMaxStalenessTrigger verifies the timer path publishes without the
// doc-count threshold being reached.
func TestMaxStalenessTrigger(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 1000 // never trigger by count
	cfg.MaxStaleness = 20 * time.Millisecond
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(nil, false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(3) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "staleness timer publish", func() bool { return ing.Stats().DocsPublished == 3 })
	drain(t, ing)
}

// TestWarmStart persists intake through the segment store, then restarts
// a fresh ingester from disk and checks the collection survived intact.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	store, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.EpochDocs = 4
	cfg.Store = store
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(12)
	if err := ing.Bootstrap(docs[:5], true); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range docs[5:] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)
	if st := ing.Stats(); st.PersistedDocs != 12 {
		t.Fatalf("persisted %d docs, want 12 (%+v)", st.PersistedDocs, st)
	}

	// Restart: reopen the store, replay, verify the same collection.
	store2, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Docs() != 12 {
		t.Fatalf("store holds %d docs after restart, want 12", store2.Docs())
	}
	loaded, err := store2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Store = store2
	ing2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Bootstrap(loaded.Docs(), false); err != nil {
		t.Fatal(err)
	}
	if got := ing2.Current().MatchCount(browse.Selection{}); got != 12 {
		t.Fatalf("warm-started interface serves %d docs, want 12", got)
	}
	// Replayed documents must not be appended again.
	if st := ing2.Stats(); st.PersistedDocs != 12 {
		t.Fatalf("warm start re-persisted: %d docs", st.PersistedDocs)
	}
	drain(t, ing2)
	if store2.Docs() != 12 {
		t.Fatalf("store grew to %d docs across a replay-only session", store2.Docs())
	}
}

// TestGracefulDrain checks Close finishes queued work: everything
// submitted before Close must be published afterwards.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 1000 // force the final epoch to do the publishing
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(2), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(9) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)
	if got := ing.Current().MatchCount(browse.Selection{}); got != 11 {
		t.Fatalf("after drain interface serves %d docs, want 11", got)
	}
	if err := ing.Submit(testDocs(1)[0]); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBackpressure: a saturated queue fails fast before workers
// start draining it.
func TestSubmitBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 2
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(3)
	if err := ing.Submit(docs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Submit(docs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Submit(docs[2]); err != ErrQueueFull {
		t.Fatalf("overfull Submit = %v, want ErrQueueFull", err)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Resources: []core.Resource{testResource()}}); err == nil {
		t.Fatal("no extractors accepted")
	}
	if _, err := New(Config{Extractors: []core.Extractor{wordExtractor{}}}); err == nil {
		t.Fatal("no resources accepted")
	}
	for _, th := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig()
		cfg.SubsumptionThreshold = th
		if _, err := New(cfg); err == nil {
			t.Fatalf("SubsumptionThreshold %v accepted", th)
		}
	}
	for _, th := range []float64{0, 0.5, 1} {
		cfg := testConfig()
		cfg.SubsumptionThreshold = th
		if _, err := New(cfg); err != nil {
			t.Fatalf("SubsumptionThreshold %v rejected: %v", th, err)
		}
	}
}
