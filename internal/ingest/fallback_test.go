package ingest

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestFallbackAdmitsUnderTotalOutage: with every resource down and a
// fallback configured, submitted documents are admitted with the
// fallback's context instead of dead-lettered — the corpus-only degraded
// mode of the live path.
func TestFallbackAdmitsUnderTotalOutage(t *testing.T) {
	res := &toggleResource{mapResource: testResource()}
	fb := mapResource{name: "corpus", m: map[string][]string{
		"chirac": {"politicians", "france"},
		"merkel": {"politicians", "germany"},
	}}
	cfg := testConfig()
	cfg.Resources = []core.Resource{res}
	cfg.Fallback = fb
	cfg.EpochDocs = 1000
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(3), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()

	res.down.Store(true)
	docs := testDocs(5)
	for _, d := range docs[3:5] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "fallback admissions", func() bool { return ing.Stats().DocsIngested == 5 })
	st := ing.Stats()
	if st.DeadLetters != 0 || st.AnalysisFailures != 0 {
		t.Fatalf("documents dead-lettered despite fallback: %+v", st)
	}
	if st.FallbackLookups == 0 {
		t.Fatal("FallbackLookups = 0, want rescued lookups counted")
	}
	drain(t, ing)
}

// TestFallbackStaysOutOfPartialOutage: with only SOME resources down, the
// never-half-ingest rule still dead-letters — the fallback must not paper
// over a partial expansion.
func TestFallbackStaysOutOfPartialOutage(t *testing.T) {
	res := &toggleResource{mapResource: testResource()}
	healthy := mapResource{name: "healthy", m: map[string][]string{"chirac": {"leaders"}}}
	cfg := testConfig()
	cfg.Resources = []core.Resource{res, healthy}
	cfg.Fallback = mapResource{name: "corpus", m: map[string][]string{"chirac": {"politicians"}}}
	cfg.EpochDocs = 1000
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(3), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	defer drain(t, ing)

	res.down.Store(true)
	docs := testDocs(4)
	if err := ing.SubmitContext(context.Background(), docs[3]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dead letter", func() bool { return ing.Stats().DeadLetters == 1 })
	if got := ing.Stats().FallbackLookups; got != 0 {
		t.Fatalf("FallbackLookups = %d during a partial outage, want 0", got)
	}
	if got := ing.Stats().DocsIngested; got != 3 {
		t.Fatalf("DocsIngested = %d, want 3 (no half-ingest)", got)
	}
}

// TestFallbackUntouchedWhenResourcesHealthy: healthy runs never consult
// the fallback, so configuring one cannot perturb normal ingestion.
func TestFallbackUntouchedWhenResourcesHealthy(t *testing.T) {
	cfg := testConfig()
	cfg.Fallback = mapResource{name: "corpus", m: map[string][]string{"chirac": {"SHOULD-NOT-APPEAR"}}}
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(12), false); err != nil {
		t.Fatal(err)
	}
	if got := ing.Stats().FallbackLookups; got != 0 {
		t.Fatalf("FallbackLookups = %d on a healthy run, want 0", got)
	}
	if set := facetTermSet(ing.Current()); set["SHOULD-NOT-APPEAR"] {
		t.Fatal("fallback context leaked into a healthy run's facets")
	}
	drain(t, ing)
}
