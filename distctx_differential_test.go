package facet

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/browse"
	"repro/internal/ingest"
	"repro/internal/snapshot"
	"repro/internal/textdb"
)

// toTextDocs converts facade documents to the ingest subsystem's type,
// the same mapping the facade and facetserve apply on intake.
func toTextDocs(in []Document) []*textdb.Document {
	out := make([]*textdb.Document, len(in))
	for i, d := range in {
		out[i] = &textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
	}
	return out
}

// TestDistctxSequentialEquivalence is the differential harness for the
// corpus-only mode: the distributional model is built from sharded
// co-occurrence counting and then drives the sharded pipeline, so BOTH
// layers must be worker-count invariant. The same corpus runs with
// Workers=1 and Workers=8 and every observable output — ranking,
// statistics, per-document rows, rendered hierarchy — must be identical.
// CI runs this under -race.
func TestDistctxSequentialEquivalence(t *testing.T) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 150, 43)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (*Result, *Hierarchy) {
		t.Helper()
		sys, err := NewSystem(env, Options{TopK: 80, Workers: workers, Resources: []string{"corpus"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			sys.Add(d)
		}
		res, err := sys.ExtractFacets()
		if err != nil {
			t.Fatal(err)
		}
		h, err := res.BuildHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		return res, h
	}

	seqRes, seqH := run(1)
	parRes, parH := run(8)

	if len(seqRes.Facets) == 0 {
		t.Fatal("sequential corpus-only run extracted no facets; the differential test is vacuous")
	}
	if !reflect.DeepEqual(seqRes.Facets, parRes.Facets) {
		t.Errorf("corpus-only facet terms diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Candidates, parRes.inner.Candidates) {
		t.Errorf("corpus-only candidate ranking diverges between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Important, parRes.inner.Important) {
		t.Errorf("per-document important terms diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Context, parRes.inner.Context) {
		t.Errorf("per-document distributional context rows diverge between Workers=1 and Workers=8")
	}
	if seq, par := seqH.FormatTree(), parH.FormatTree(); seq != par {
		t.Errorf("corpus-only hierarchy diverges between Workers=1 and Workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestDistctxIncrementalMatchesBatch streams a corpus through ingest
// epochs with the distributional model as the ONLY context resource and
// requires the published facet ranking to equal the batch pipeline's over
// the same corpus — the corpus-only instance of the live/batch
// equivalence property. The model is built once over the full corpus
// (through the same CoreResources seam facetserve uses) and shared by
// both paths, as a warm-started server would.
func TestDistctxIncrementalMatchesBatch(t *testing.T) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, Options{TopK: 60, Resources: []string{"corpus"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	batch, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Facets) == 0 {
		t.Fatal("batch corpus-only pipeline found no facet terms")
	}

	cfg := ingest.Config{
		Extractors: sys.CoreExtractors(),
		Resources:  sys.CoreResources(),
		TopK:       60,
		EpochDocs:  13,
		Workers:    4,
	}
	ing, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(toTextDocs(docs[:20]), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range toTextDocs(docs[20:]) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := make([]string, len(batch.Facets))
	for i, f := range batch.Facets {
		want[i] = f.Term
	}
	got := ing.FacetTerms()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live corpus-only ranking (%d terms) != batch (%d terms)\nlive:  %v\nbatch: %v",
			len(got), len(want), got, want)
	}
}

// TestDistctxSnapshotRoundTrip saves a corpus-only build to a snapshot
// and warm-starts from it: the rehydrated interface must answer browse
// queries identically to the cold corpus-only engine.
func TestDistctxSnapshotRoundTrip(t *testing.T) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, Options{TopK: 60, Resources: []string{"corpus"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	iface, err := res.BrowseEngine(h)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "corpus_only.fsnp")
	stats := make([]snapshot.FacetStat, len(res.Facets))
	for i, f := range res.Facets {
		stats[i] = snapshot.FacetStat{Term: f.Term, DF: f.DF, DFC: f.DFC, ShiftF: f.ShiftF, ShiftR: f.ShiftR, Score: f.Score}
	}
	if err := snapshot.Save(path, snapshot.Capture(iface, snapshot.Meta{Profile: "SNYT", Seed: 42}, stats), nil); err != nil {
		t.Fatal(err)
	}
	warm, snap, err := snapshot.LoadBrowse(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("saved corpus-only snapshot fails validation: %v", err)
	}

	roots := iface.Children("", browse.Selection{})
	if len(roots) == 0 {
		t.Fatal("corpus-only build has no root facets")
	}
	sels := []browse.Selection{
		{},
		{Terms: []string{roots[0].Term}},
		{Query: "minister"},
	}
	for i, sel := range sels {
		if got, want := warm.Docs(sel), iface.Docs(sel); !reflect.DeepEqual(got, want) {
			t.Errorf("sel%d: warm Docs = %v, cold = %v", i, got, want)
		}
		if got, want := warm.Children("", sel), iface.Children("", sel); !reflect.DeepEqual(got, want) {
			t.Errorf("sel%d: warm root menu = %v, cold = %v", i, got, want)
		}
	}
}
