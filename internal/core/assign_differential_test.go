package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ner"
	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/textdb"
	"repro/internal/wiki"
	"repro/internal/wordnet"
)

// goldenAssignInputs runs Steps 1-3 over the corpus the root package's
// golden fixtures are built from (60 SNYT documents, seed 7, over the
// seed-42 ontology) with the simulated NE and Wikipedia-title extractors
// and the WordNet and Wikipedia resources. It returns that corpus, whose
// dictionary then holds the context terms too, and what document
// assignment reads: important terms, votes and facet terms.
func goldenAssignInputs(t *testing.T) (corpus *textdb.Corpus, important [][]string, votes []map[string]int, terms []string) {
	t.Helper()
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wiki.Build(kb, wiki.Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	wn, err := wordnet.FromIsa(ontology.WordNetLexicon(kb))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(60), 7)
	if err != nil {
		t.Fatal(err)
	}
	corpus = ds.Corpus
	var gaz []string
	for _, e := range kb.Entities() {
		gaz = append(append(gaz, e.Display), e.Variants...)
	}
	extractors := []Extractor{ner.New(ner.WithGazetteer(gaz)), wiki.NewTitleExtractor(w)}
	resources := []Resource{wordnet.NewResource(wn, 2), wiki.NewSynonymResource(w), wiki.NewGraphResource(w, 50)}
	important, _, err = IdentifyImportantReport(background, corpus, extractors, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewResourceCache()
	rows, _, _, err := DeriveContextFallbackReport(background, important, resources, nil, cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	terms = AnalyzeWith(corpus, rows, 80, AnalyzeOptions{}).FacetTermStrings()
	return corpus, important, ContextVotes(important, resources, cache), terms
}

// TestAssignDocTermsMatchesReference: over the golden corpus, assignment
// by term ID equals the reference that compares strings — with the facet
// terms as Step 3 ranks them, and with duplicates, a term nobody holds
// and terms only votes bring in added. It holds on the corpus the
// pipeline ran over, where every document's term row exists, and on a
// fresh copy of it with no row built and no context term interned.
func TestAssignDocTermsMatchesReference(t *testing.T) {
	corpus, important, votes, terms := goldenAssignInputs(t)
	if len(terms) == 0 {
		t.Fatal("no facet terms")
	}
	var voted []string
	for _, v := range votes {
		for c := range v {
			voted = append(voted, c)
		}
	}
	slices.Sort(voted)
	voted = slices.Compact(voted)
	extra := append([]string{terms[0], terms[len(terms)-1], "no such facet term"}, terms...)
	for i := 0; i < len(voted); i += 10 {
		extra = append(extra, voted[i])
	}
	fresh := func() *textdb.Corpus {
		c := textdb.NewCorpus()
		for _, d := range corpus.Docs() {
			c.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
		}
		return c
	}
	for _, fs := range [][]string{terms, extra} {
		want := refAssignDocTerms(fresh(), important, votes, fs)
		if got := refAssignDocTerms(corpus, important, votes, fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d facet terms: the reference depends on the corpus copy", len(fs))
		}
		if got := AssignDocTerms(corpus, CorroboratedRows(corpus.Dict(), important, votes), fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("pipeline corpus, %d facet terms: assignment differs from the reference", len(fs))
		}
		f := fresh()
		if got := AssignDocTerms(f, CorroboratedRows(f.Dict(), important, votes), fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("fresh corpus, %d facet terms: assignment differs from the reference", len(fs))
		}
	}

	// Both ways in are exercised: by text and by votes alone.
	byText, byVotes := 0, 0
	for d, row := range refAssignDocTerms(corpus, important, votes, terms) {
		for _, term := range row {
			if slices.Contains(corpus.DocTerms(textdb.DocID(d)), corpus.Dict().Lookup(term)) {
				byText++
			} else {
				byVotes++
			}
		}
	}
	if byText == 0 || byVotes == 0 {
		t.Fatalf("%d assignments by text and %d by votes alone, want both", byText, byVotes)
	}
}
