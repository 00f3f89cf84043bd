package textdb_test

import (
	"reflect"
	"testing"

	"repro/internal/lang"
	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/textdb"
)

// goldenDocs generates the corpus the root package's golden fixtures are
// built from: 60 SNYT documents, seed 7, over the seed-42 ontology.
func goldenDocs(t *testing.T) []*textdb.Document {
	t.Helper()
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(60), 7)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Corpus.Docs()
}

// TestBuildIndexSnapshotsMatchReference grows a live corpus from the
// golden documents and indexes a snapshot every few documents, the way
// ingestion epochs do: each index reuses the rows earlier snapshots
// built, and must equal the reference index that tokenizes every
// document — postings, lengths, and the hits of every title word.
func TestBuildIndexSnapshotsMatchReference(t *testing.T) {
	docs := goldenDocs(t)
	live := textdb.NewCorpus()
	for i, d := range docs {
		live.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
		if i%7 != 6 && i != len(docs)-1 {
			continue
		}
		snap := live.Snapshot()
		got, want := textdb.BuildIndex(snap), textdb.RefBuildIndex(snap)
		gp, gl, gt := textdb.IndexState(got)
		wp, wl, wt := textdb.IndexState(want)
		if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gl, wl) || gt != wt {
			t.Fatalf("%d documents: index differs from the reference", snap.Len())
		}
		for _, doc := range docs[:snap.Len()] {
			for _, tok := range lang.Tokenize(doc.Title) {
				if g, w := got.Search(tok.Text, 10), want.Search(tok.Text, 10); !reflect.DeepEqual(g, w) {
					t.Fatalf("%d documents: Search(%q) = %v, reference %v", snap.Len(), tok.Text, g, w)
				}
				if g, w := got.SearchAll(tok.Text, snap.Len()), want.SearchAll(tok.Text, snap.Len()); !reflect.DeepEqual(g, w) {
					t.Fatalf("%d documents: SearchAll(%q) = %v, reference %v", snap.Len(), tok.Text, g, w)
				}
			}
		}
	}
}
