package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/textdb"
)

// fakeExtractor returns fixed terms for any document containing them.
type fakeExtractor struct {
	name  string
	terms []string
}

func (f fakeExtractor) Name() string { return f.name }
func (f fakeExtractor) Extract(text string) []string {
	lower := strings.ToLower(text)
	var out []string
	for _, t := range f.terms {
		if strings.Contains(lower, t) {
			out = append(out, t)
		}
	}
	return out
}

// fakeResource maps terms to fixed context.
type fakeResource struct {
	name  string
	ctx   map[string][]string
	calls map[string]int
}

func (f *fakeResource) Name() string { return f.name }
func (f *fakeResource) Context(term string) []string {
	if f.calls != nil {
		f.calls[term]++
	}
	return f.ctx[term]
}

func miniCorpus(texts ...string) *textdb.Corpus {
	c := textdb.NewCorpus()
	for _, t := range texts {
		c.Add(&textdb.Document{Title: "story", Text: t})
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error without extractors")
	}
	if _, err := New(Config{Extractors: []Extractor{fakeExtractor{}}}); err == nil {
		t.Fatal("expected error without resources")
	}
	if _, err := New(Config{
		Extractors: []Extractor{fakeExtractor{}},
		Resources:  []Resource{&fakeResource{}},
		TopK:       -1,
	}); err == nil {
		t.Fatal("expected error for negative TopK")
	}
}

func TestRunEmptyCorpus(t *testing.T) {
	p, _ := New(Config{
		Extractors: []Extractor{fakeExtractor{name: "x"}},
		Resources:  []Resource{&fakeResource{name: "r"}},
	})
	if _, err := p.Run(textdb.NewCorpus()); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}

// TestFacetTermEmerges reproduces the paper's core scenario in miniature:
// "political leaders" never appears in the documents, every document
// mentions a politician, and expansion surfaces the facet term.
func TestFacetTermEmerges(t *testing.T) {
	var texts []string
	for i := 0; i < 20; i++ {
		texts = append(texts, fmt.Sprintf("chirac discussed the budget with advisers on day %d", i))
	}
	// A few unrelated documents so the collection isn't degenerate.
	for i := 0; i < 10; i++ {
		texts = append(texts, fmt.Sprintf("the weather stayed calm across region %d with light winds", i))
	}
	corpus := miniCorpus(texts...)
	ex := fakeExtractor{name: "ne", terms: []string{"chirac"}}
	res := &fakeResource{name: "wiki", ctx: map[string][]string{
		"chirac": {"political leaders", "france"},
	}}
	p, err := New(Config{Extractors: []Extractor{ex}, Resources: []Resource{res}, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	result, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	facets := result.FacetTermStrings()
	if len(facets) == 0 {
		t.Fatal("no facet terms discovered")
	}
	found := map[string]bool{}
	for _, f := range facets {
		found[f] = true
	}
	if !found["political leaders"] || !found["france"] {
		t.Fatalf("expected facet terms missing: %v", facets)
	}
	// Check the evidence on the discovered term.
	for _, f := range result.Facets {
		if f.Term == "political leaders" {
			if f.DF != 0 {
				t.Fatalf("DF = %d, want 0 (term absent from documents)", f.DF)
			}
			if f.DFC != 20 {
				t.Fatalf("DFC = %d, want 20", f.DFC)
			}
			if f.ShiftF != 20 || f.ShiftR <= 0 || f.Score <= 0 {
				t.Fatalf("evidence wrong: %+v", f)
			}
		}
	}
}

// TestTermsAlreadyFrequentDoNotQualify: a term that appears in every
// document gains nothing from expansion and must not become a candidate.
func TestTermsAlreadyFrequentDoNotQualify(t *testing.T) {
	var texts []string
	for i := 0; i < 10; i++ {
		texts = append(texts, "chirac spoke about politics and the politics of budget")
	}
	corpus := miniCorpus(texts...)
	ex := fakeExtractor{name: "ne", terms: []string{"chirac"}}
	res := &fakeResource{name: "wiki", ctx: map[string][]string{
		"chirac": {"politics"}, // already in every doc
	}}
	p, _ := New(Config{Extractors: []Extractor{ex}, Resources: []Resource{res}})
	result, _ := p.Run(corpus)
	for _, f := range result.Candidates {
		if f.Term == "politics" {
			t.Fatalf("saturated term became a candidate: %+v", f)
		}
	}
}

func TestImportantTermsUnionAcrossExtractors(t *testing.T) {
	corpus := miniCorpus("alpha beta gamma delta")
	e1 := fakeExtractor{name: "a", terms: []string{"alpha", "beta"}}
	e2 := fakeExtractor{name: "b", terms: []string{"beta", "gamma"}}
	res := &fakeResource{name: "r", ctx: map[string][]string{}}
	p, _ := New(Config{Extractors: []Extractor{e1, e2}, Resources: []Resource{res}})
	result, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma"}
	if !reflect.DeepEqual(result.Important[0], want) {
		t.Fatalf("important = %v, want %v", result.Important[0], want)
	}
}

func TestMaxImportantPerDoc(t *testing.T) {
	corpus := miniCorpus("alpha beta gamma")
	e := fakeExtractor{name: "a", terms: []string{"alpha", "beta", "gamma"}}
	res := &fakeResource{name: "r", ctx: map[string][]string{}}
	p, _ := New(Config{Extractors: []Extractor{e}, Resources: []Resource{res}, MaxImportantPerDoc: 2})
	result, _ := p.Run(corpus)
	if len(result.Important[0]) != 2 {
		t.Fatalf("cap not applied: %v", result.Important[0])
	}
}

func TestResourceCacheAvoidsRepeatQueries(t *testing.T) {
	corpus := miniCorpus("chirac here", "chirac there", "chirac again")
	e := fakeExtractor{name: "a", terms: []string{"chirac"}}
	res := &fakeResource{name: "r", ctx: map[string][]string{"chirac": {"france"}}, calls: map[string]int{}}
	p, _ := New(Config{Extractors: []Extractor{e}, Resources: []Resource{res}})
	if _, err := p.Run(corpus); err != nil {
		t.Fatal(err)
	}
	if res.calls["chirac"] != 1 {
		t.Fatalf("resource queried %d times, want 1 (cached)", res.calls["chirac"])
	}
}

func TestTopKBoundsOutput(t *testing.T) {
	var texts []string
	for i := 0; i < 20; i++ {
		texts = append(texts, fmt.Sprintf("entity%d reported news item %d", i%5, i))
	}
	corpus := miniCorpus(texts...)
	terms := []string{"entity0", "entity1", "entity2", "entity3", "entity4"}
	ctx := map[string][]string{}
	for i, tm := range terms {
		ctx[tm] = []string{fmt.Sprintf("general%d", i), fmt.Sprintf("broad%d", i)}
	}
	e := fakeExtractor{name: "a", terms: terms}
	p, _ := New(Config{Extractors: []Extractor{e}, Resources: []Resource{&fakeResource{name: "r", ctx: ctx}}, TopK: 3})
	result, _ := p.Run(corpus)
	if len(result.Facets) > 3 {
		t.Fatalf("TopK violated: %d facets", len(result.Facets))
	}
	if len(result.Candidates) < len(result.Facets) {
		t.Fatal("candidates must include facets")
	}
}

func TestScoresSortedDescending(t *testing.T) {
	var texts []string
	for i := 0; i < 30; i++ {
		who := "smith"
		if i%3 == 0 {
			who = "jones"
		}
		texts = append(texts, fmt.Sprintf("%s acted on item %d", who, i))
	}
	corpus := miniCorpus(texts...)
	e := fakeExtractor{name: "a", terms: []string{"smith", "jones"}}
	ctx := map[string][]string{
		"smith": {"actors"},  // frequent expansion → high df shift
		"jones": {"writers"}, // rarer expansion
	}
	p, _ := New(Config{Extractors: []Extractor{e}, Resources: []Resource{&fakeResource{name: "r", ctx: ctx}}})
	result, _ := p.Run(corpus)
	if len(result.Candidates) < 2 {
		t.Fatalf("candidates: %+v", result.Candidates)
	}
	for i := 1; i < len(result.Candidates); i++ {
		if result.Candidates[i].Score > result.Candidates[i-1].Score {
			t.Fatal("scores not sorted descending")
		}
	}
	if result.Candidates[0].Term != "actors" {
		t.Fatalf("highest shift should rank first: %+v", result.Candidates[0])
	}
}

func TestGlossaryExtractor(t *testing.T) {
	g, err := NewGlossaryExtractor("Finance", []string{"Due Diligence", "hedge fund", "margin"})
	if err != nil {
		t.Fatal(err)
	}
	got := g.Extract("The hedge fund performed due diligence on margin accounts.")
	want := []string{"hedge fund", "due diligence", "margin"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, err := NewGlossaryExtractor("empty", nil); err == nil {
		t.Fatal("expected error for empty glossary")
	}
}

func TestGlossaryExtractorLongestMatch(t *testing.T) {
	g, _ := NewGlossaryExtractor("x", []string{"stock", "stock market"})
	got := g.Extract("the stock market fell")
	if !reflect.DeepEqual(got, []string{"stock market"}) {
		t.Fatalf("got %v", got)
	}
}

func TestGlossaryResource(t *testing.T) {
	r, err := NewGlossaryResource("Finance", map[string][]string{
		"Hedge Fund": {"Investments", "investments", "Risk", "hedge fund"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Context("hedge fund")
	want := []string{"investments", "risk"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if r.Context("unknown") != nil {
		t.Fatal("unknown term should return nil")
	}
	if _, err := NewGlossaryResource("empty", nil); err == nil {
		t.Fatal("expected error for empty thesaurus")
	}
}

func TestContextVotes(t *testing.T) {
	res := &fakeResource{name: "r", ctx: map[string][]string{
		"chirac": {"politics", "france"},
		"merkel": {"politics", "germany"},
	}}
	important := [][]string{
		{"chirac", "merkel"}, // politics corroborated by both terms
		{"chirac"},
		{},
	}
	votes := ContextVotes(important, []Resource{res}, nil)
	if votes[0]["politics"] != 2 || votes[0]["france"] != 1 || votes[0]["germany"] != 1 {
		t.Fatalf("doc 0 votes = %v", votes[0])
	}
	if votes[1]["politics"] != 1 {
		t.Fatalf("doc 1 votes = %v", votes[1])
	}
	if len(votes[2]) != 0 {
		t.Fatalf("doc 2 votes = %v", votes[2])
	}
}

func TestContextVotesResourceDedup(t *testing.T) {
	// Two resources returning the same context term for the same important
	// term count as ONE vote: votes measure distinct important terms.
	r1 := &fakeResource{name: "a", ctx: map[string][]string{"x": {"general"}}}
	r2 := &fakeResource{name: "b", ctx: map[string][]string{"x": {"general"}}}
	votes := ContextVotes([][]string{{"x"}}, []Resource{r1, r2}, nil)
	if votes[0]["general"] != 1 {
		t.Fatalf("votes = %v, want 1 (deduped across resources)", votes[0])
	}
}

func TestResultResourcesRecorded(t *testing.T) {
	corpus := miniCorpus("alpha beta")
	res := &fakeResource{name: "r", ctx: map[string][]string{}}
	p, _ := New(Config{Extractors: []Extractor{fakeExtractor{name: "a", terms: []string{"alpha"}}}, Resources: []Resource{res}})
	result, err := p.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Resources) != 1 || result.Resources[0].Name() != "r" {
		t.Fatal("resources not recorded on result")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	var texts []string
	for i := 0; i < 25; i++ {
		texts = append(texts, fmt.Sprintf("entity%d met entity%d about issue %d", i%4, (i+1)%4, i))
	}
	build := func() *Result {
		corpus := miniCorpus(texts...)
		terms := []string{"entity0", "entity1", "entity2", "entity3"}
		ctx := map[string][]string{}
		for i, tm := range terms {
			ctx[tm] = []string{fmt.Sprintf("general%d", i%2), "people"}
		}
		p, _ := New(Config{
			Extractors: []Extractor{fakeExtractor{name: "a", terms: terms}},
			Resources:  []Resource{&fakeResource{name: "r", ctx: ctx}},
		})
		res, err := p.Run(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Facets, b.Facets) {
		t.Fatal("pipeline runs diverge")
	}
	if !reflect.DeepEqual(a.Candidates, b.Candidates) {
		t.Fatal("candidate lists diverge")
	}
}

func TestIdentifyImportantParallelMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var texts []string
	for i := 0; i < 64; i++ {
		texts = append(texts, fmt.Sprintf("alpha beta doc%d gamma", i))
	}
	corpus := miniCorpus(texts...)
	ex := fakeExtractor{name: "a", terms: []string{"alpha", "beta", "gamma"}}
	// workers 0 follows GOMAXPROCS: four workers, then the sequential path.
	parallel, _, err := IdentifyImportantReport(context.Background(), corpus, []Extractor{ex}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	sequential, _, err := IdentifyImportantReport(context.Background(), corpus, []Extractor{ex}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, sequential) {
		t.Fatal("parallel and sequential extraction differ")
	}
	if len(parallel) != 64 {
		t.Fatalf("%d rows", len(parallel))
	}
	for i, row := range parallel {
		if len(row) != 3 {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

func TestAssignDocTerms(t *testing.T) {
	corpus := miniCorpus(
		"baseball game in boston",
		"boston election",
		"baseball",
		"baseball baseball",
	)
	important := [][]string{
		{"baseball", "boston", "red sox"},
		{"boston"},
		nil,
		{"baseball", "pitcher"},
	}
	votes := []map[string]int{
		// "politics" has the votes but is no facet term.
		{"sports": 2, "city": 1, "politics": 3},
		// One important term: a single vote suffices.
		{"city": 1, "politics": 1},
		nil,
		// A voted text term is still listed once.
		{"baseball": 1, "sports": 2, "city": 1},
	}
	terms := []string{"baseball", "sports", "city", "election", "zebra"}
	got := AssignDocTerms(corpus, CorroboratedRows(corpus.Dict(), important, votes), terms)
	want := [][]string{
		{"baseball", "sports"},
		{"city", "election"},
		{"baseball"},
		{"baseball", "sports"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssignDocTerms = %v, want %v", got, want)
	}
}
