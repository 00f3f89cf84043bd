package textdb

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("war")
	b := d.Intern("peace")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if d.Intern("war") != a {
		t.Fatal("re-interning changed the ID")
	}
	if d.Lookup("war") != a || d.Lookup("absent") != NoTerm {
		t.Fatal("lookup broken")
	}
	if d.String(a) != "war" {
		t.Fatal("String broken")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDictionarySortedIDs(t *testing.T) {
	d := NewDictionary()
	for _, w := range []string{"zebra", "apple", "mango"} {
		d.Intern(w)
	}
	var got []string
	for _, id := range d.SortedIDs() {
		got = append(got, d.String(id))
	}
	want := []string{"apple", "mango", "zebra"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

// TestEmptyTablesStartSmall: every corpus, shard and generated news
// corpus gets its own dictionary and index, and a served engine keeps
// its corpus's for as long as it serves, so an empty one must not
// reserve a table sized for a large vocabulary.
func TestEmptyTablesStartSmall(t *testing.T) {
	const n, limit = 100, 4 << 10
	perCall := func(build func() any) uint64 {
		kept := make([]any, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range kept {
			kept[i] = build()
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	if got := perCall(func() any { return NewDictionary() }); got > limit {
		t.Errorf("an empty dictionary allocates %d bytes, want at most %d", got, limit)
	}
	empty := NewCorpus()
	if got := perCall(func() any { return BuildIndex(empty) }); got > limit {
		t.Errorf("an empty corpus's index allocates %d bytes, want at most %d", got, limit)
	}
}

func TestExtractTermsWordsAndPhrases(t *testing.T) {
	terms := ExtractTerms("Jacques Chirac attended the G8 summit.")
	set := map[string]bool{}
	for _, term := range terms {
		set[term] = true
	}
	for _, want := range []string{"jacques", "chirac", "jacques chirac", "g8 summit", "summit"} {
		if !set[want] {
			t.Errorf("missing term %q in %v", want, terms)
		}
	}
	// Phrases must not start or end with a stopword.
	for term := range set {
		words := strings.Split(term, " ")
		if len(words) > 1 {
			if isStop(words[0]) || isStop(words[len(words)-1]) {
				t.Errorf("phrase %q has stopword boundary", term)
			}
		}
	}
}

func isStop(w string) bool {
	return w == "the" || w == "a" || w == "of"
}

func TestExtractTermsNoCrossSentencePhrases(t *testing.T) {
	terms := ExtractTerms("He visited Paris. London was next.")
	for _, term := range terms {
		if term == "paris london" {
			t.Fatal("phrase crossed sentence boundary")
		}
	}
}

func newTestCorpus(texts ...string) *Corpus {
	c := NewCorpus()
	for i, text := range texts {
		c.Add(&Document{Title: "doc", Source: "test", Text: text})
		_ = i
	}
	return c
}

func TestCorpusBasics(t *testing.T) {
	c := newTestCorpus("war in iraq", "peace talks in geneva")
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Doc(0).ID != 0 || c.Doc(1).ID != 1 {
		t.Fatal("IDs not assigned densely")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDocTermsDeduped(t *testing.T) {
	c := newTestCorpus("war war war peace")
	terms := c.DocTerms(0)
	seen := map[TermID]bool{}
	for _, id := range terms {
		if seen[id] {
			t.Fatalf("duplicate term id %d", id)
		}
		seen[id] = true
	}
	// Cached result is stable.
	if &c.DocTerms(0)[0] != &terms[0] {
		t.Fatal("DocTerms not cached")
	}
}

func TestDFTableCounts(t *testing.T) {
	c := newTestCorpus("war in iraq", "war ends", "peace treaty")
	table := NewDFTable(c.Dict())
	for i := 0; i < c.Len(); i++ {
		table.AddDoc(c.DocTerms(DocID(i)))
	}
	warID := c.Dict().Lookup("war")
	if table.DF(warID) != 2 {
		t.Fatalf("DF(war) = %d, want 2", table.DF(warID))
	}
	if table.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", table.NumDocs())
	}
	if table.DF(NoTerm) != 0 || table.DF(TermID(99999)) != 0 {
		t.Fatal("unknown terms must have DF 0")
	}
}

func TestDFTableMergeMatchesSingleTable(t *testing.T) {
	c := newTestCorpus(
		"war in iraq", "war ends", "peace treaty",
		"markets rally", "war peace markets", "treaty signed",
	)
	// One table over all documents...
	whole := NewDFTable(c.Dict())
	for i := 0; i < c.Len(); i++ {
		whole.AddDoc(c.DocTerms(DocID(i)))
	}
	// ...must equal per-shard delta tables merged together, regardless of
	// shard boundaries.
	for _, cut := range []int{0, 2, 4, 6} {
		merged := NewDFTable(c.Dict())
		left, right := NewDFTable(c.Dict()), NewDFTable(c.Dict())
		for i := 0; i < c.Len(); i++ {
			if i < cut {
				left.AddDoc(c.DocTerms(DocID(i)))
			} else {
				right.AddDoc(c.DocTerms(DocID(i)))
			}
		}
		merged.Merge(left)
		merged.Merge(right)
		if merged.NumDocs() != whole.NumDocs() {
			t.Fatalf("cut %d: NumDocs = %d, want %d", cut, merged.NumDocs(), whole.NumDocs())
		}
		for id := 0; id < c.Dict().Len(); id++ {
			if merged.DF(TermID(id)) != whole.DF(TermID(id)) {
				t.Fatalf("cut %d: DF(%q) = %d, want %d",
					cut, c.Dict().String(TermID(id)), merged.DF(TermID(id)), whole.DF(TermID(id)))
			}
		}
	}
	// Merging an empty or nil table is a no-op.
	before := whole.NumDocs()
	whole.Merge(NewDFTable(c.Dict()))
	whole.Merge(nil)
	if whole.NumDocs() != before {
		t.Fatal("empty merge changed the table")
	}
}

func TestRanksAndBins(t *testing.T) {
	d := NewDictionary()
	table := NewDFTable(d)
	// a appears in 3 docs, b in 2, c in 1.
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	table.AddDoc([]TermID{a, b, c})
	table.AddDoc([]TermID{a, b})
	table.AddDoc([]TermID{a})
	ranks := table.Ranks()
	if ranks.Rank(a) != 1 || ranks.Rank(b) != 2 || ranks.Rank(c) != 3 {
		t.Fatalf("ranks = %d %d %d", ranks.Rank(a), ranks.Rank(b), ranks.Rank(c))
	}
	unseen := d.Intern("zzz")
	if ranks.Rank(unseen) != 4 {
		t.Fatalf("unseen rank = %d, want maxRank+1 = 4", ranks.Rank(unseen))
	}
	if ranks.MaxRank() != 3 {
		t.Fatalf("MaxRank = %d", ranks.MaxRank())
	}
}

func TestRankTiesDeterministic(t *testing.T) {
	d := NewDictionary()
	table := NewDFTable(d)
	x, y := d.Intern("zulu"), d.Intern("alpha")
	table.AddDoc([]TermID{x, y})
	ranks := table.Ranks()
	// Equal df: tie broken alphabetically, "alpha" before "zulu".
	if ranks.Rank(y) != 1 || ranks.Rank(x) != 2 {
		t.Fatalf("tie-break wrong: alpha=%d zulu=%d", ranks.Rank(y), ranks.Rank(x))
	}
}

func TestBinFunction(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for rank, want := range cases {
		if got := Bin(rank); got != want {
			t.Errorf("Bin(%d) = %d, want %d", rank, got, want)
		}
	}
}

func TestTopTerms(t *testing.T) {
	d := NewDictionary()
	table := NewDFTable(d)
	a, b, c := d.Intern("aa"), d.Intern("bb"), d.Intern("cc")
	table.AddDoc([]TermID{a, b, c})
	table.AddDoc([]TermID{a, b})
	table.AddDoc([]TermID{a})
	top := table.TopTerms(2, 1)
	if len(top) != 2 || top[0] != a || top[1] != b {
		t.Fatalf("TopTerms = %v", top)
	}
	if got := table.TopTerms(10, 2); len(got) != 2 {
		t.Fatalf("minDF filter failed: %v", got)
	}
}

func TestSearchBM25(t *testing.T) {
	c := newTestCorpus(
		"the war in iraq continued as troops advanced",
		"peace negotiations in geneva between diplomats",
		"war war war everywhere war",
		"the stock market rallied on strong earnings",
	)
	ix := BuildIndex(c)
	hits := ix.Search("war", 10)
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0].Doc != 2 {
		t.Fatalf("top hit = doc %d, want the war-heavy doc 2", hits[0].Doc)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatal("scores not descending")
	}
	if got := ix.Search("zzz unknown", 5); got != nil {
		t.Fatalf("unknown query returned %v", got)
	}
	if got := ix.Search("war", 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestSearchMultiTermFavorsBothTerms(t *testing.T) {
	c := newTestCorpus(
		"war in iraq with heavy fighting in baghdad",
		"war memorial opened in paris france today",
		"iraq oil exports resumed through southern ports",
	)
	ix := BuildIndex(c)
	hits := ix.Search("war iraq", 3)
	if len(hits) == 0 || hits[0].Doc != 0 {
		t.Fatalf("doc 0 (both terms) should rank first, got %v", hits)
	}
}

func TestDocFreq(t *testing.T) {
	c := newTestCorpus("war begins", "war ends", "peace holds")
	ix := BuildIndex(c)
	if ix.DocFreq("war") != 2 || ix.DocFreq("peace") != 1 || ix.DocFreq("absent") != 0 {
		t.Fatal("DocFreq wrong")
	}
	if ix.DocFreq("WAR") != 2 {
		t.Fatal("DocFreq should normalize case")
	}
}

func TestSnippetCentersOnMatches(t *testing.T) {
	filler := strings.Repeat("filler words keep going onward here ", 20)
	text := filler + "the treaty between france and germany was signed " + filler
	doc := &Document{Text: text}
	snip := Snippet(doc, "treaty france", 12)
	if !strings.Contains(snip, "treaty") {
		t.Fatalf("snippet %q does not contain the match", snip)
	}
	if len(snip) >= len(text) {
		t.Fatal("snippet not shorter than document")
	}
}

func TestSnippetShortDoc(t *testing.T) {
	doc := &Document{Text: "tiny document"}
	if got := Snippet(doc, "tiny", 30); got != "tiny document" {
		t.Fatalf("got %q", got)
	}
	if got := Snippet(&Document{Text: ""}, "x", 10); got != "" {
		t.Fatalf("empty doc snippet = %q", got)
	}
}

func TestSharedDictionaryAcrossCorpora(t *testing.T) {
	dict := NewDictionary()
	a := NewCorpusSharing(dict)
	b := NewCorpusSharing(dict)
	a.Add(&Document{Title: "t", Text: "war in iraq"})
	b.Add(&Document{Title: "t", Text: "war in europe"})
	a.DocTerms(0)
	b.DocTerms(0)
	if dict.Lookup("war") == NoTerm {
		t.Fatal("shared dictionary missing term")
	}
	// Same term must have the same ID seen from both corpora.
	idA := a.Dict().Lookup("war")
	idB := b.Dict().Lookup("war")
	if idA != idB {
		t.Fatal("IDs diverge across corpora sharing a dictionary")
	}
}

func TestQuickBinMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return Bin(x) <= Bin(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExtractTermsNeverPanics(t *testing.T) {
	f := func(s string) bool {
		for _, term := range ExtractTerms(s) {
			if term == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchAllConjunctive(t *testing.T) {
	c := newTestCorpus(
		"jacques chirac spoke in paris",
		"jacques delors stayed home",
		"chirac visited the summit",
	)
	ix := BuildIndex(c)
	hits := ix.SearchAll("jacques chirac", 10)
	if len(hits) != 1 || hits[0].Doc != 0 {
		t.Fatalf("conjunctive search got %v", hits)
	}
	// Disjunctive search matches all three.
	if got := ix.Search("jacques chirac", 10); len(got) != 3 {
		t.Fatalf("disjunctive search got %d hits", len(got))
	}
	// A term absent from the index empties the conjunction.
	if got := ix.SearchAll("jacques zzz", 10); got != nil {
		t.Fatalf("missing term should yield nil, got %v", got)
	}
	if got := ix.SearchAll("chirac", 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	// Duplicate query terms must not break the match count.
	if got := ix.SearchAll("chirac chirac", 10); len(got) != 2 {
		t.Fatalf("duplicate-term query got %d hits", len(got))
	}
}
