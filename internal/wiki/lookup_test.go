package wiki

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/textdb"
)

// seed42Env is the simulated Wikipedia of the facade's default
// environment (facet.EnvConfig{Seed: 42} builds the ontology with seed
// 42 and the wiki with seed 43), built once per test binary.
var seed42Env = sync.OnceValues(func() (*ontology.KB, *Wiki) {
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		panic(err)
	}
	w, err := Build(kb, Config{Seed: 43})
	if err != nil {
		panic(err)
	}
	return kb, w
})

// goldenTexts returns the texts of the golden regression corpus: the
// 60 SNYT documents facet's golden harness generates with seed 7 over
// the seed-42 environment.
func goldenTexts(tb testing.TB, kb *ontology.KB) []string {
	tb.Helper()
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(60), 7)
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, ds.Corpus.Len())
	for i := range texts {
		texts[i] = ds.Corpus.Doc(textdb.DocID(i)).Text
	}
	return texts
}

func TestRedirectGroupAndAnchorsMatchReference(t *testing.T) {
	_, w := seed42Env()
	anchorTF := referenceAnchorTF(w)
	redirects, anchors := 0, 0
	for _, p := range w.Pages() {
		got, want := w.RedirectGroup(p.ID), referenceRedirectGroup(w, p.ID)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RedirectGroup(%q) = %q, reference %q", p.Title, got, want)
		}
		gotA, wantA := w.AnchorsFor(p.ID), referenceAnchorsFor(anchorTF, p.ID)
		if !reflect.DeepEqual(gotA, wantA) {
			t.Fatalf("AnchorsFor(%q) = %v, reference %v", p.Title, gotA, wantA)
		}
		redirects += len(want)
		anchors += len(wantA)
	}
	if redirects == 0 || anchors == 0 {
		t.Fatalf("compared %d redirects and %d anchors; the environment should have both", redirects, anchors)
	}
}

func TestAccessorsReturnCallerOwnedSlices(t *testing.T) {
	_, w := seed42Env()
	for _, p := range w.Pages() {
		if group := w.RedirectGroup(p.ID); len(group) > 0 {
			group[0] = "mutated"
			if w.RedirectGroup(p.ID)[0] == "mutated" {
				t.Fatal("RedirectGroup exposes the wiki's own slice")
			}
			break
		}
	}
	for _, p := range w.Pages() {
		if anchors := w.AnchorsFor(p.ID); len(anchors) > 0 {
			anchors[0].Term = "mutated"
			if w.AnchorsFor(p.ID)[0].Term == "mutated" {
				t.Fatal("AnchorsFor exposes the wiki's own slice")
			}
			break
		}
	}
}

func TestExtractMatchesReference(t *testing.T) {
	kb, w := seed42Env()
	ex := NewTitleExtractor(w)
	texts := goldenTexts(t, kb)
	for _, p := range w.Pages() {
		texts = append(texts, p.Text)
	}
	found := 0
	for _, text := range texts {
		got, want := ex.Extract(text), referenceExtract(w, text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Extract(%q) = %q, reference %q", text, got, want)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("no titles found in any text")
	}
}

func FuzzTitleExtract(f *testing.F) {
	kb, w := seed42Env()
	for _, text := range goldenTexts(f, kb)[:5] {
		f.Add(text)
	}
	for _, p := range w.Pages()[:5] {
		f.Add(p.Text)
	}
	for _, s := range []string{
		"", "the of and", "a", "U.S. troops left the U.S. embassy.",
		"Médecins Sans Frontières in São Paulo; 北京.", "New York, Stock Exchange",
		"state-of-the-art don't end.Of", "G8 2005 G8 Summit g8 summit",
	} {
		f.Add(s)
	}
	ex := NewTitleExtractor(w)
	f.Fuzz(func(t *testing.T, text string) {
		got, want := ex.Extract(text), referenceExtract(w, text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Extract(%q) = %q, reference %q", text, got, want)
		}
	})
}

// sink keeps the benchmarked calls' results live.
var sink []string

// BenchmarkSynonymContext prices one Wikipedia Synonyms lookup, cycling
// through every page title of the seed-42 environment.
func BenchmarkSynonymContext(b *testing.B) {
	_, w := seed42Env()
	r := NewSynonymResource(w)
	pages := w.Pages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = r.Context(pages[i%len(pages)].Title)
	}
}

// BenchmarkTitleExtract prices extracting the titles of one page text,
// cycling through every page of the seed-42 environment.
func BenchmarkTitleExtract(b *testing.B) {
	_, w := seed42Env()
	ex := NewTitleExtractor(w)
	pages := w.Pages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = ex.Extract(pages[i%len(pages)].Text)
	}
}
