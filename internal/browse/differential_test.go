package browse

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// datedFixture builds a corpus with dates so the differential suite can
// exercise the binary-searched date index alongside facets and keywords.
func datedFixture(t *testing.T) *Interface {
	t.Helper()
	corpus := textdb.NewCorpus()
	day := func(d int) time.Time { return time.Date(2008, 1, d, 0, 0, 0, 0, time.UTC) }
	docs := []struct {
		text string
		d    int
	}{
		{"chirac spoke in paris about the budget", 1},
		{"berlin hosted a summit on trade", 2},
		{"the election in france drew crowds", 2}, // shares a date with doc 1
		{"a baseball game in boston went long", 3},
		{"soccer fans filled the stadium in london", 4},
		{"markets rallied while paris stayed quiet", 5},
		{"paris fashion week opened with soccer celebrities", 5},
		{"trade talks in berlin stalled over budget lines", 6},
	}
	for _, d := range docs {
		corpus.Add(&textdb.Document{Title: "t", Source: "s", Date: day(d.d), Text: d.text})
	}
	terms := []string{"europe", "france", "germany", "sports", "baseball", "soccer"}
	docTerms := [][]string{
		{"europe", "france"},
		{"europe", "germany"},
		{"europe", "france"},
		{"sports", "baseball"},
		{"sports", "soccer"},
		{"europe", "france"},
		{"europe", "france", "soccer", "sports"},
		{"europe", "germany"},
	}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(corpus, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// differentialSelections enumerates the selection shapes the suite
// compares: facet conjunctions, keyword queries (including the
// normalization edge cases), date ranges, and combinations.
func differentialSelections() []Selection {
	day := func(d int) time.Time { return time.Date(2008, 1, d, 0, 0, 0, 0, time.UTC) }
	return []Selection{
		{},
		{Terms: []string{"europe"}},
		{Terms: []string{"france"}},
		{Terms: []string{"sports"}},
		{Terms: []string{"europe", "france"}},
		{Terms: []string{"europe", "sports"}},
		{Terms: []string{"europe", "france", "soccer"}},
		{Terms: []string{"no-such-facet"}},
		{Terms: []string{"europe", "no-such-facet"}},
		{Query: "paris"},
		{Query: "paris budget"},
		{Query: "the"},        // stopword-only: normalizes to nothing
		{Query: "zzzzz"},      // token absent from the dictionary
		{Query: "paris zzzz"}, // one known + one unknown token
		{From: day(2)},
		{To: day(4)},
		{From: day(2), To: day(5)},
		{From: day(5), To: day(2)}, // inverted: empty range
		{From: day(2), To: day(2)}, // From inclusive, To exclusive: empty
		{Terms: []string{"europe"}, Query: "paris", From: day(1), To: day(6)},
		{Terms: []string{"sports"}, From: day(4)},
		{Terms: []string{"france"}, Query: "budget"},
	}
}

// TestDifferentialIndexedVsNaive compares every indexed answer — cold,
// then cached — against the full-scan reference implementation.
func TestDifferentialIndexedVsNaive(t *testing.T) {
	b := datedFixture(t)
	parents := []string{""}
	b.Forest().Walk(func(n *hierarchy.Node, _ int) { parents = append(parents, n.Term) })
	for i, sel := range differentialSelections() {
		name := fmt.Sprintf("sel%02d", i)
		wantDocs := b.ScanDocs(sel)
		wantCount := b.ScanMatchCount(sel)
		for pass, label := range []string{"cold", "cached"} {
			_ = pass
			if got := b.Docs(sel); !sameDocs(got, wantDocs) {
				t.Errorf("%s/%s: Docs = %v, naive scan = %v (sel %+v)", name, label, got, wantDocs, sel)
			}
			if got := b.MatchCount(sel); got != wantCount {
				t.Errorf("%s/%s: MatchCount = %d, naive scan = %d (sel %+v)", name, label, got, wantCount, sel)
			}
		}
		for _, parent := range parents {
			want := b.ScanChildren(parent, sel)
			if got := b.Children(parent, sel); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Children(%q) = %v, naive scan = %v (sel %+v)", name, parent, got, want, sel)
			}
		}
	}
}

// TestDifferentialConcurrent hammers the cache from many goroutines while
// comparing against precomputed naive answers; run under -race this
// proves the cached read path is safe for concurrent serving.
func TestDifferentialConcurrent(t *testing.T) {
	b := datedFixture(t)
	sels := differentialSelections()
	want := make([][]textdb.DocID, len(sels))
	for i, sel := range sels {
		want[i] = b.ScanDocs(sel)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(sels)
				if got := b.Docs(sels[i]); !sameDocs(got, want[i]) {
					select {
					case errs <- fmt.Errorf("goroutine %d sel %d: got %v want %v", g, i, got, want[i]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameDocs treats nil and empty as equal (the indexed path returns an
// empty non-nil slice, the scanner returns nil).
func sameDocs(a, b []textdb.DocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRehydrateMatchesBuild proves the warm-start constructor yields an
// engine answering identically to a from-scratch Build.
func TestRehydrateMatchesBuild(t *testing.T) {
	built := datedFixture(t)
	re, err := Rehydrate(built.Corpus(), built.Forest(), built.DocTermRows(), built.Postings())
	if err != nil {
		t.Fatal(err)
	}
	for i, sel := range differentialSelections() {
		if got, want := re.Docs(sel), built.Docs(sel); !sameDocs(got, want) {
			t.Errorf("sel%02d: rehydrated Docs = %v, built = %v", i, got, want)
		}
	}
}

// TestRehydrateValidation: missing or mis-sized posting lists must be
// rejected rather than silently serving wrong answers.
func TestRehydrateValidation(t *testing.T) {
	built := datedFixture(t)
	missing := built.Postings()
	var anyTerm string
	for term := range missing {
		anyTerm = term
		break
	}
	delete(missing, anyTerm)
	if _, err := Rehydrate(built.Corpus(), built.Forest(), built.DocTermRows(), missing); err == nil {
		t.Fatal("Rehydrate accepted postings with a missing term")
	}
	short := built.Postings()
	short[anyTerm] = bitset.New(built.Corpus().Len() - 1)
	if _, err := Rehydrate(built.Corpus(), built.Forest(), built.DocTermRows(), short); err == nil {
		t.Fatal("Rehydrate accepted a posting list of the wrong capacity")
	}
}
