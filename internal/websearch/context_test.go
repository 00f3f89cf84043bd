package websearch

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/ontology"
	"repro/internal/textdb"
	"repro/internal/wiki"
)

// seed42Env is the simulated web of the facade's default environment
// (facet.EnvConfig{Seed: 42} builds the ontology with seed 42 and the
// wiki with seed 43), built once per test binary.
var seed42Env = sync.OnceValues(func() (*wiki.Wiki, *Engine) {
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		panic(err)
	}
	w, err := wiki.Build(kb, wiki.Config{Seed: 43})
	if err != nil {
		panic(err)
	}
	return w, NewEngineFromWiki(w)
})

// seed42Queries returns, sorted, every distinct page title, lowercased
// title, link anchor and text word (as written and normalized) of the
// seed-42 environment.
func seed42Queries() []string {
	w, _ := seed42Env()
	set := map[string]bool{}
	for _, p := range w.Pages() {
		set[p.Title] = true
		set[strings.ToLower(p.Title)] = true
		for _, l := range p.Links {
			set[l.Anchor] = true
		}
		for _, tok := range lang.Tokenize(p.Text) {
			set[tok.Text] = true
			set[tok.Norm] = true
		}
	}
	out := make([]string, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// contextEdgeCases are queries outside the environment's vocabulary or
// at the tokenizer's corners.
var contextEdgeCases = []string{
	"", " ", "the", "the of and", "a", "x", "...", "!?", "(France)",
	"U.S.", "u.s", "U.S. Army", "state-of-the-art", "don't", "France, Germany",
	"Médecins Sans Frontières", "São Paulo", "北京", "zzqy unknown blob",
}

func TestContextMatchesReference(t *testing.T) {
	_, e := seed42Env()
	r := NewResource(e, 10, 10, nil)
	queries := append(seed42Queries(), contextEdgeCases...)
	answered := 0
	for _, q := range queries {
		got, want := r.Context(q), referenceContext(r, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Context(%q) = %q, reference %q", q, got, want)
		}
		if len(want) > 0 {
			answered++
		}
	}
	if answered < len(queries)/2 {
		t.Fatalf("only %d of %d queries had context; the comparison is too weak", answered, len(queries))
	}
}

// fuzzFiller is the number of filler pages FuzzGoogleContext adds beside
// the fuzzed ones. With only a few pages every term would sit on more
// than maxBackgroundDF of them and every answer would be empty.
const fuzzFiller = 40

func FuzzGoogleContext(f *testing.F) {
	f.Add("France|France is a country in Europe. See also Germany, Paris.\n"+
		"Germany|Germany borders France, Austria and Poland; its capital is Berlin.\n"+
		"Paris|Paris is the capital of France. The city hosts the Louvre museum.",
		"France")
	f.Add("U.S.|The U.S. Army and the U.S. Navy met U.S. officials in Washington.\n"+
		"Army|The U.S. Army is a land force of the United States.\n"+
		"Navy|The U.S. Navy is a naval force of the United States.",
		"U.S. Army")
	// Texts longer than a 24-token snippet window, with the query words
	// at both ends and in the middle.
	long := strings.Repeat("alpha beta gamma, delta epsilon. ", 12)
	f.Add("Long|"+long+"zeta eta theta\nOther|theta "+long+"\nThird|"+long+"theta iota", "theta")
	f.Add("Café|Médecins Sans Frontières opened a clinic in São Paulo. 北京 hosted talks.\n"+
		"Clinic|São Paulo clinic, São Paulo talks, São Paulo clinic", "São Paulo")
	f.Fuzz(func(t *testing.T, pages, query string) {
		c := textdb.NewCorpus()
		for _, line := range strings.Split(pages, "\n") {
			title, text, _ := strings.Cut(line, "|")
			c.Add(&textdb.Document{Title: title, Source: "web", Text: text})
		}
		for i := 0; i < fuzzFiller; i++ {
			c.Add(&textdb.Document{Title: fmt.Sprintf("Filler %d", i), Text: fmt.Sprintf("filler%d page", i)})
		}
		e := NewEngine(c)
		for _, r := range []*Resource{NewResource(e, 10, 10, nil), NewResource(e, 3, 30, nil)} {
			got, want := r.Context(query), referenceContext(r, query)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d m=%d: Context(%q) = %q, reference %q", r.kResults, r.mTerms, query, got, want)
			}
		}
	})
}

func TestNewEngineLeavesCorpusDictionary(t *testing.T) {
	c := textdb.NewCorpus()
	c.Add(&textdb.Document{Title: "Alpha", Text: "the quick brown fox, a lazy dog"})
	NewEngine(c)
	// BuildIndex interns the indexed words; stopwords and one-letter
	// words are not indexed and must not reach the corpus dictionary.
	for _, w := range []string{"the", "a"} {
		if c.Dict().Lookup(w) != textdb.NoTerm {
			t.Fatalf("NewEngine interned %q into the corpus dictionary", w)
		}
	}
}

// TestSharedLookupsConcurrent shares one Google resource, one Wikipedia
// Synonyms resource and one title extractor between goroutines, as the
// pipeline does at Workers > 1 and across ingest workers; every answer
// must equal the sequential one. Run it under -race.
func TestSharedLookupsConcurrent(t *testing.T) {
	w, e := seed42Env()
	google := NewResource(e, 10, 10, nil)
	synonyms := wiki.NewSynonymResource(w)
	titles := wiki.NewTitleExtractor(w)
	pages := w.Pages()
	if len(pages) > 240 {
		pages = pages[:240]
	}
	type answer struct{ google, synonyms, titles []string }
	want := make([]answer, len(pages))
	for i, p := range pages {
		want[i] = answer{google.Context(p.Title), synonyms.Context(p.Title), titles.Extract(p.Text)}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different page so that
			// different lookups overlap.
			for k := range pages {
				i := (k + g*len(pages)/goroutines) % len(pages)
				p := pages[i]
				got := answer{google.Context(p.Title), synonyms.Context(p.Title), titles.Extract(p.Text)}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, page %q: got %q, sequential %q", g, p.Title, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// sink keeps the benchmarked calls' results live.
var sink []string

// BenchmarkGoogleContext prices one Google lookup, cycling through every
// page title of the seed-42 environment.
func BenchmarkGoogleContext(b *testing.B) {
	w, e := seed42Env()
	r := NewResource(e, 10, 10, nil)
	pages := w.Pages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = r.Context(pages[i%len(pages)].Title)
	}
}
