package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/lang"
	"repro/internal/textdb"
)

// epochTestDocs is testDocs with a tail per document, so that epochs
// bring the keyword index terms no earlier epoch saw.
func epochTestDocs(n int) []*textdb.Document {
	docs := testDocs(n)
	for i, d := range docs {
		d.Text += fmt.Sprintf(". Filed %d at desk%d under note%d.", 10+i, i%4, i%9)
	}
	return docs
}

// refAssign is the string-keyed assignment the term-ID rows replaced: a
// facet term describes a document when it is one of the document's
// text terms, or when at least two of its important terms (one, with
// fewer than two) vote for it.
func refAssign(corpus *textdb.Corpus, important [][]string, votes []map[string]int, terms []string) [][]string {
	facet := map[string]bool{}
	for _, t := range terms {
		facet[t] = true
	}
	rows := make([][]string, corpus.Len())
	for d := range rows {
		present := map[string]bool{}
		for _, id := range corpus.DocTerms(textdb.DocID(d)) {
			if s := corpus.Dict().String(id); facet[s] {
				present[s] = true
			}
		}
		need := 2
		if len(important[d]) < 2 {
			need = 1
		}
		for c, v := range votes[d] {
			if v >= need && facet[c] {
				present[c] = true
			}
		}
		for t := range present {
			rows[d] = append(rows[d], t)
		}
		sort.Strings(rows[d])
	}
	return rows
}

// rebuildFromScratch builds the interface a batch run builds over a fresh
// copy of the snapshot's documents, in the snapshot's order: Steps 1-3
// from nothing, the reference assignment over ContextVotes, the
// subsumption builder, and a keyword index built from scratch by a
// corpus no earlier index belongs to. It returns the interface and the
// facet terms Step 3 ranked.
func rebuildFromScratch(t *testing.T, cfg Config, snap *textdb.Corpus) (*browse.Interface, []string) {
	t.Helper()
	ctx := context.Background()
	fresh := textdb.NewCorpus()
	for _, d := range snap.Docs() {
		fresh.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	}
	important, _, err := core.IdentifyImportantReport(ctx, fresh, cfg.Extractors, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _, err := core.DeriveContextFallbackReport(ctx, important, cfg.Resources, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	terms := core.AnalyzeWith(fresh, rows, cfg.TopK, core.AnalyzeOptions{}).FacetTermStrings()
	docTerms := refAssign(fresh, important, core.ContextVotes(important, cfg.Resources, nil), terms)
	b, _ := hierarchy.Lookup("subsumption")
	forest, err := b.Build(ctx, terms, docTerms, hierarchy.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	iface, err := browse.Build(fresh, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	return iface, terms
}

// searchWords returns every indexable word of the documents' titles and
// texts, each once, plus one word no document holds.
func searchWords(docs []*textdb.Document) []string {
	seen := map[string]bool{"zeppelin": true}
	words := []string{"zeppelin"}
	for _, d := range docs {
		for _, tok := range lang.Tokenize(d.Title + " " + d.Text) {
			if !seen[tok.Norm] {
				seen[tok.Norm] = true
				words = append(words, tok.Norm)
			}
		}
	}
	return words
}

// indexAnswers is what an interface's keyword index answers for each
// word: its BM25 hits with scores and its document frequency, and the
// interface's conjunctive Search.
func indexAnswers(iface *browse.Interface, words []string) []string {
	ix := textdb.BuildIndex(iface.Corpus())
	n := iface.Corpus().Len()
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = fmt.Sprintf("%s: %v df=%d and=%v", w, ix.Search(w, n), ix.DocFreq(w), iface.Search(w, n))
	}
	return out
}

// checkMatchesRebuild compares a published interface with a from-scratch
// rebuild over its snapshot: the forest, every document's facet row, the
// facet posting lists and the keyword index's answers.
func checkMatchesRebuild(t *testing.T, label string, got, want *browse.Interface, terms, wantTerms []string) {
	t.Helper()
	if !slices.Equal(terms, wantTerms) {
		t.Fatalf("%s: facet terms %v, rebuild %v", label, terms, wantTerms)
	}
	if g, w := hierarchy.FormatTree(got.Forest()), hierarchy.FormatTree(want.Forest()); g != w {
		t.Fatalf("%s: forest\n%s\nrebuild\n%s", label, g, w)
	}
	if !reflect.DeepEqual(got.DocTermRows(), want.DocTermRows()) {
		t.Fatalf("%s: facet rows %v, rebuild %v", label, got.DocTermRows(), want.DocTermRows())
	}
	gp, wp := got.Postings(), want.Postings()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d posting lists, rebuild %d", label, len(gp), len(wp))
	}
	for term, w := range wp {
		g, ok := gp[term]
		if !ok || g.Len() != w.Len() || !slices.Equal(g.Words(), w.Words()) {
			t.Fatalf("%s: posting list of %q differs from the rebuild's", label, term)
		}
	}
	words := searchWords(want.Corpus().Docs())
	if g, w := indexAnswers(got, words), indexAnswers(want, words); !slices.Equal(g, w) {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: index answers %s, rebuild %s", label, g[i], w[i])
			}
		}
	}
}

// TestEpochMatchesRebuild is the epoch differential: an ingester streams
// documents in small epochs, each extending the keyword index, the
// corroborated-vote rows and the DF tables the epoch before built, and
// every published interface equals a from-scratch rebuild over its
// snapshot. Meanwhile a reader keeps asking the bootstrap epoch's index
// while intake extends the live one, and must keep getting the answers
// that epoch gave when it was published. CI runs it under -race.
func TestEpochMatchesRebuild(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.EpochDocs = 3
			type epoch struct {
				iface *browse.Interface
				terms []string
			}
			var mu sync.Mutex
			var published []epoch
			ing, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			docs := epochTestDocs(36)
			if err := ing.Bootstrap(docs[:6], false); err != nil {
				t.Fatal(err)
			}
			published = append(published, epoch{ing.Current(), ing.FacetTerms()})
			ing.SetOnPublish(func(iface *browse.Interface) {
				mu.Lock()
				defer mu.Unlock()
				published = append(published, epoch{iface, ing.FacetTerms()})
			})

			first := ing.Current()
			words := searchWords(docs) // includes words only later epochs index
			want := indexAnswers(first, words)
			stop := make(chan struct{})
			var readers sync.WaitGroup
			stopReader := sync.OnceFunc(func() { close(stop); readers.Wait() })
			defer stopReader()
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got := indexAnswers(first, words); !slices.Equal(got, want) {
						t.Error("the bootstrap epoch's index answered differently while intake extended the live index")
						return
					}
				}
			}()

			ing.Start()
			for i := 6; i < len(docs); i += cfg.EpochDocs {
				for _, d := range docs[i : i+cfg.EpochDocs] {
					if err := ing.SubmitContext(context.Background(), d); err != nil {
						t.Fatal(err)
					}
				}
				// One epoch per batch: wait for it before sending the next.
				waitFor(t, "the batch's epoch", func() bool { return ing.Stats().DocsPublished == int64(i+cfg.EpochDocs) })
			}
			if err := ing.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			stopReader()

			if n := ing.Current().Corpus().Len(); n != len(docs) {
				t.Fatalf("last epoch serves %d documents, want %d", n, len(docs))
			}
			if len(published) != 11 {
				t.Fatalf("%d epochs published, want the bootstrap's and one per batch of 3", len(published))
			}
			for _, e := range published {
				ref, refTerms := rebuildFromScratch(t, cfg, e.iface.Corpus())
				label := fmt.Sprintf("epoch %d (%d documents)", e.iface.Epoch(), e.iface.Corpus().Len())
				checkMatchesRebuild(t, label, e.iface, ref, e.terms, refTerms)
			}
		})
	}
}

// TestFailedAppendPublishesNothing: when an epoch's segment append fails,
// the epoch publishes nothing and its documents stay pending; the next
// epoch publishes them and persists each document once.
func TestFailedAppendPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := epochTestDocs(10)
	if err := ing.Bootstrap(docs[:4], true); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[4:7] {
		ing.process(d, true, 0)
	}
	// A directory where the manifest's temporary file goes makes the
	// append fail after its segment file is written.
	blocker := filepath.Join(dir, "MANIFEST.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	served := ing.Current()
	if err := ing.runEpoch(context.Background()); err == nil {
		t.Fatal("epoch with a failing append returned nil")
	}
	if st := ing.Stats(); ing.Current() != served || st.Epochs != 1 || st.DocsPublished != 4 || st.PersistedDocs != 4 {
		t.Fatalf("after the failed append: %d epochs, %d published, %d persisted, interface swapped %v; want 1, 4, 4, false",
			st.Epochs, st.DocsPublished, st.PersistedDocs, ing.Current() != served)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[7:] {
		ing.process(d, true, 0)
	}
	if err := ing.runEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.Epochs != 2 || st.DocsPublished != 10 || st.PersistedDocs != 10 || st.LastEpochDocs != 6 {
		t.Fatalf("after the retry: %d epochs, %d published, %d persisted, %d in the last epoch; want 2, 10, 10, 6",
			st.Epochs, st.DocsPublished, st.PersistedDocs, st.LastEpochDocs)
	}
	reopened, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := reopened.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, d := range loaded.Docs() {
		got = append(got, d.Title)
	}
	for _, d := range docs {
		want = append(want, d.Title)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("store holds %v, want %v", got, want)
	}
}

// blockingBuilder builds like subsumption until armed; armed, it blocks
// until its ctx is done, for at most a few seconds, so an epoch that is
// never canceled fails the test instead of hanging it.
type blockingBuilder struct {
	armed   atomic.Bool
	entered chan struct{}
}

var blocking = &blockingBuilder{}

func init() { hierarchy.Register(blocking) }

func (*blockingBuilder) Name() string { return "ingest-test-blocking" }

func (b *blockingBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg hierarchy.BuildConfig) (*hierarchy.Forest, error) {
	if !b.armed.Load() {
		sub, _ := hierarchy.Lookup("subsumption")
		return sub.Build(ctx, terms, docTerms, cfg)
	}
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(3 * time.Second):
		return nil, errors.New("rebuild not canceled")
	}
}

// TestCloseCancelsRebuild: Close with a deadline interrupts the
// scheduler's in-flight rebuild once the deadline passes, publishes
// nothing more, and still persists every accepted document.
func TestCloseCancelsRebuild(t *testing.T) {
	dir := t.TempDir()
	store, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.EpochDocs = 3
	cfg.Store = store
	cfg.HierarchyBuilder = blocking.Name()
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := epochTestDocs(12)
	if err := ing.Bootstrap(docs[:4], true); err != nil {
		t.Fatal(err)
	}
	blocking.entered = make(chan struct{}, 1)
	blocking.armed.Store(true)
	defer blocking.armed.Store(false)
	ing.Start()
	for _, d := range docs[4:] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no rebuild reached the hierarchy builder")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = ing.Close(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v after a 50ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want context.DeadlineExceeded", err)
	}
	if got := ing.Current().Corpus().Len(); got != 4 {
		t.Fatalf("a canceled epoch published: %d documents served, want the bootstrap's 4", got)
	}
	reopened, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := reopened.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]int{}
	for _, d := range loaded.Docs() {
		titles[d.Title]++
	}
	for _, d := range docs {
		if titles[d.Title] != 1 {
			t.Fatalf("store holds %q %d times, want once (%d documents stored)", d.Title, titles[d.Title], loaded.Len())
		}
	}
	if loaded.Len() != len(docs) {
		t.Fatalf("store holds %d documents, want %d", loaded.Len(), len(docs))
	}
}
