package browse

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// fixture: 6 docs over a tiny europe/sports hierarchy.
func fixture(t *testing.T) (*Interface, *textdb.Corpus) {
	t.Helper()
	corpus := textdb.NewCorpus()
	texts := []string{
		"chirac spoke in paris about the budget",   // france
		"berlin hosted a summit on trade",          // germany
		"the election in france drew crowds",       // france
		"a baseball game in boston went long",      // baseball
		"soccer fans filled the stadium in london", // soccer
		"markets rallied while paris stayed quiet", // france
	}
	for _, s := range texts {
		corpus.Add(&textdb.Document{Title: "t", Source: "s", Text: s})
	}
	terms := []string{"europe", "france", "germany", "sports", "baseball", "soccer"}
	docTerms := [][]string{
		{"europe", "france"},
		{"europe", "germany"},
		{"europe", "france"},
		{"sports", "baseball"},
		{"sports", "soccer"},
		{"europe", "france"},
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
	return b, corpus
}

func TestRollupCounts(t *testing.T) {
	b, _ := fixture(t)
	if got := b.Count("europe"); got != 4 {
		t.Fatalf("Count(europe) = %d, want 4", got)
	}
	if got := b.Count("france"); got != 3 {
		t.Fatalf("Count(france) = %d", got)
	}
	if got := b.Count("sports"); got != 2 {
		t.Fatalf("Count(sports) = %d", got)
	}
	if got := b.Count("unknown"); got != 0 {
		t.Fatalf("Count(unknown) = %d", got)
	}
}

func TestDrillDown(t *testing.T) {
	b, _ := fixture(t)
	docs := b.Docs(Selection{Terms: []string{"europe", "france"}})
	want := []textdb.DocID{0, 2, 5}
	if !reflect.DeepEqual(docs, want) {
		t.Fatalf("got %v, want %v", docs, want)
	}
	if b.MatchCount(Selection{Terms: []string{"europe", "sports"}}) != 0 {
		t.Fatal("disjoint facets should intersect empty")
	}
	if b.MatchCount(Selection{Terms: []string{"nonexistent"}}) != 0 {
		t.Fatal("unknown facet term should match nothing")
	}
	if b.MatchCount(Selection{}) != 6 {
		t.Fatal("empty selection should match all docs")
	}
}

func TestChildrenCounts(t *testing.T) {
	b, _ := fixture(t)
	roots := b.Children("", Selection{})
	if len(roots) == 0 {
		t.Fatal("no root facets")
	}
	kids := b.Children("europe", Selection{})
	counts := map[string]int{}
	for _, fc := range kids {
		counts[fc.Term] = fc.Count
	}
	if counts["france"] != 3 || counts["germany"] != 1 {
		t.Fatalf("child counts = %v", counts)
	}
	// Under a restriction, counts shrink and zero-count children vanish.
	restricted := b.Children("europe", Selection{Query: "election"})
	if len(restricted) != 1 || restricted[0].Term != "france" || restricted[0].Count != 1 {
		t.Fatalf("restricted children = %v", restricted)
	}
}

func TestKeywordPlusFacet(t *testing.T) {
	b, _ := fixture(t)
	docs := b.Docs(Selection{Terms: []string{"france"}, Query: "paris"})
	want := []textdb.DocID{0, 5}
	if !reflect.DeepEqual(docs, want) {
		t.Fatalf("got %v, want %v", docs, want)
	}
}

func TestSearchOnly(t *testing.T) {
	b, _ := fixture(t)
	docs := b.Search("summit trade", 10)
	if len(docs) == 0 || docs[0] != 1 {
		t.Fatalf("got %v", docs)
	}
}

func TestCross(t *testing.T) {
	b, _ := fixture(t)
	// europe-children × sports-children: everything disjoint → zeros.
	ct, err := b.Cross("europe", "sports", Selection{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ct.Cells {
		for _, c := range row {
			if c != 0 {
				t.Fatalf("expected empty cross-tab, got %v", ct.Cells)
			}
		}
	}
	if _, err := b.Cross("nope", "sports", Selection{}); err == nil {
		t.Fatal("expected error for unknown facet")
	}
}

func TestBuildValidation(t *testing.T) {
	corpus := textdb.NewCorpus()
	corpus.Add(&textdb.Document{Title: "t", Text: "x"})
	builder, _ := hierarchy.Lookup("subsumption")
	forest, _ := builder.Build(context.Background(), nil, nil, hierarchy.BuildConfig{})
	if _, err := Build(corpus, forest, nil); err == nil {
		t.Fatal("expected row-count mismatch error")
	}
}

func TestDateRangeSelection(t *testing.T) {
	corpus := textdb.NewCorpus()
	base := time.Date(2005, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		corpus.Add(&textdb.Document{
			Title: "t", Source: "s",
			Text: "war report number x",
			Date: base.AddDate(0, 0, i),
		})
	}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, _ := builder.Build(context.Background(), []string{"war"}, rows(10, "war"), hierarchy.BuildConfig{MinDF: 1})
	b, err := Build(corpus, forest, rows(10, "war"))
	if err != nil {
		t.Fatal(err)
	}
	sel := Selection{From: base.AddDate(0, 0, 3), To: base.AddDate(0, 0, 6)}
	if got := b.MatchCount(sel); got != 3 {
		t.Fatalf("date range matched %d docs, want 3", got)
	}
	// Open-ended bounds.
	if got := b.MatchCount(Selection{From: base.AddDate(0, 0, 8)}); got != 2 {
		t.Fatalf("open upper bound matched %d", got)
	}
	if got := b.MatchCount(Selection{To: base.AddDate(0, 0, 2)}); got != 2 {
		t.Fatalf("open lower bound matched %d", got)
	}
}

func rows(n int, term string) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = []string{term}
	}
	return out
}

func TestDateHistogram(t *testing.T) {
	corpus := textdb.NewCorpus()
	for i := 0; i < 6; i++ {
		month := time.Month(11)
		if i >= 4 {
			month = 12
		}
		corpus.Add(&textdb.Document{
			Title: "t", Source: "s", Text: "story text here",
			Date: time.Date(2005, month, 1+i, 10, 0, 0, 0, time.UTC),
		})
	}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, _ := builder.Build(context.Background(), nil, nil, hierarchy.BuildConfig{})
	b, err := Build(corpus, forest, make([][]string, 6))
	if err != nil {
		t.Fatal(err)
	}
	months, err := b.DateHistogram(Selection{}, "month")
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 2 || months[0].Count != 4 || months[1].Count != 2 {
		t.Fatalf("month histogram = %+v", months)
	}
	days, err := b.DateHistogram(Selection{}, "day")
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 6 {
		t.Fatalf("day histogram has %d buckets", len(days))
	}
	if _, err := b.DateHistogram(Selection{}, "year"); err == nil {
		t.Fatal("unknown granularity accepted")
	}
}
