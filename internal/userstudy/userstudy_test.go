package userstudy

import (
	"context"
	"testing"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/textdb"
)

// buildFixture assembles a small dataset with a ground-truth-based
// hierarchy (skipping facet extraction, which has its own tests): each
// document is annotated with its trace facets directly.
func buildFixture(t *testing.T) (*browse.Interface, *newsgen.Dataset) {
	t.Helper()
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(120), 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var terms []string
	docTerms := make([][]string, ds.Corpus.Len())
	for i, tr := range ds.Traces {
		for _, f := range tr.Facets {
			name := kb.Concept(f).Name
			docTerms[i] = append(docTerms[i], name)
			if !seen[name] {
				seen[name] = true
				terms = append(terms, name)
			}
		}
	}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{Threshold: 0.6, MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	iface, err := browse.Build(ds.Corpus, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	return iface, ds
}

func TestRunProducesSessions(t *testing.T) {
	iface, ds := buildFixture(t)
	sessions, err := Run(iface, ds, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 5 {
		t.Fatalf("%d sessions", len(sessions))
	}
	for i, s := range sessions {
		if s.Session != i+1 {
			t.Fatalf("session numbering wrong: %+v", s)
		}
		if s.Satisfaction < 0 || s.Satisfaction > 3 {
			t.Fatalf("satisfaction %v outside scale", s.Satisfaction)
		}
		if s.Time <= 0 {
			t.Fatalf("session %d has no time", i+1)
		}
		if s.KeywordQueries < 0 || s.FacetClicks < 0 {
			t.Fatalf("negative counts: %+v", s)
		}
	}
}

func TestLearningShiftsTowardFacets(t *testing.T) {
	iface, ds := buildFixture(t)
	sessions, err := Run(iface, ds, Config{Seed: 11, Users: 20})
	if err != nil {
		t.Fatal(err)
	}
	first, last := sessions[0], sessions[len(sessions)-1]
	if last.KeywordQueries > first.KeywordQueries {
		t.Fatalf("keyword use grew: %.2f -> %.2f", first.KeywordQueries, last.KeywordQueries)
	}
	if last.FacetClicks < first.FacetClicks {
		t.Fatalf("facet use shrank: %.2f -> %.2f", first.FacetClicks, last.FacetClicks)
	}
}

func TestFirstSessionStartsWithKeyword(t *testing.T) {
	iface, ds := buildFixture(t)
	sessions, err := Run(iface, ds, Config{Seed: 7, Users: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Every first-session user issues at least one keyword query (the
	// paper's observed first-interaction pattern).
	if sessions[0].KeywordQueries < 1 {
		t.Fatalf("first session keyword mean %.2f < 1", sessions[0].KeywordQueries)
	}
}

func TestRunDeterministic(t *testing.T) {
	iface, ds := buildFixture(t)
	a, _ := Run(iface, ds, Config{Seed: 9})
	b, _ := Run(iface, ds, Config{Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d differs across identical runs", i)
		}
	}
}

func TestRunEmptyCorpus(t *testing.T) {
	corpus := textdb.NewCorpus()
	builder, _ := hierarchy.Lookup("subsumption")
	forest, _ := builder.Build(context.Background(), nil, nil, hierarchy.BuildConfig{})
	iface, err := browse.Build(corpus, forest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(iface, &newsgen.Dataset{Corpus: corpus}, Config{}); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}
