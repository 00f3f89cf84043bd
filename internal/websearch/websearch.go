// Package websearch implements the web-search simulator behind the
// paper's "Google" external resource (Section IV-B): a BM25 engine over a
// web-like page collection (the synthetic Wikipedia's pages serve as the
// web), returning ranked results with titles and snippets; the resource
// mines the most frequent words and phrases from the result snippets as
// context terms.
//
// As in the paper's implementation, only titles and snippets are mined —
// not full pages — "introducing a relatively large number of noisy
// terms", which is the documented reason the Google resource trades
// precision for recall in Tables V–VII.
package websearch

import (
	"slices"
	"strings"

	"repro/internal/lang"
	"repro/internal/remote"
	"repro/internal/textdb"
	"repro/internal/wiki"
)

// Engine is a searchable page collection.
//
// Besides the BM25 index, NewEngine tokenizes every page once into a
// private vocabulary, so Resource.Context counts integer term IDs over
// stored streams instead of re-tokenizing its result pages per query.
// The engine is read-only after construction and safe for concurrent
// use.
type Engine struct {
	corpus *textdb.Corpus
	index  *textdb.Index

	vocab  map[string]int32 // token norm → private term ID
	words  []string         // term ID → token norm
	terms  []termInfo       // term ID → per-term facts
	titles []tokenStream    // per page, in corpus order
	texts  []tokenStream
}

// termInfo holds what Context needs to know about a term, computed once.
type termInfo struct {
	stop  bool  // lang.IsStopword: never counted, never part of a bigram
	short bool  // one byte long: never a unigram context term
	df    int32 // pages containing the term, as textdb.Index.DocFreq counts
}

// tokenStream is a tokenized text: one term ID per token, and whether
// the token opens a phrase segment (lang.Token.PhraseStart).
type tokenStream struct {
	ids         []int32
	phraseStart []bool
}

// NewEngineFromWiki indexes every wiki page as a web document.
func NewEngineFromWiki(w *wiki.Wiki) *Engine {
	c := textdb.NewCorpus()
	for _, p := range w.Pages() {
		c.Add(&textdb.Document{Title: p.Title, Source: "web", Text: p.Text})
	}
	return NewEngine(c)
}

// NewEngine wraps an existing corpus as a search engine. The engine's
// term streams and tables live in its own vocabulary; only the BM25
// index interns into the corpus dictionary.
func NewEngine(c *textdb.Corpus) *Engine {
	e := &Engine{
		corpus: c,
		index:  textdb.BuildIndex(c),
		vocab:  map[string]int32{},
		titles: make([]tokenStream, c.Len()),
		texts:  make([]tokenStream, c.Len()),
	}
	for i, doc := range c.Docs() {
		e.titles[i] = e.stream(doc.Title)
		e.texts[i] = e.stream(doc.Text)
	}
	e.terms = make([]termInfo, len(e.words))
	for id, w := range e.words {
		e.terms[id] = termInfo{
			stop:  lang.IsStopword(w),
			short: len(w) <= 1,
			df:    int32(e.index.DocFreq(w)),
		}
	}
	return e
}

// stream tokenizes text into the engine's vocabulary.
func (e *Engine) stream(text string) tokenStream {
	toks := lang.Tokenize(text)
	s := tokenStream{ids: make([]int32, len(toks)), phraseStart: make([]bool, len(toks))}
	for i, t := range toks {
		id, ok := e.vocab[t.Norm]
		if !ok {
			id = int32(len(e.words))
			e.vocab[t.Norm] = id
			e.words = append(e.words, t.Norm)
		}
		s.ids[i] = id
		s.phraseStart[i] = t.PhraseStart
	}
	return s
}

// DocFreqFraction returns the fraction of indexed pages containing the
// term. For multi-word terms the minimum over component words is returned
// (an upper bound on the phrase's own document frequency).
func (e *Engine) DocFreqFraction(term string) float64 {
	if e.corpus.Len() == 0 {
		return 0
	}
	frac := 1.0
	for _, w := range strings.Fields(term) {
		f := float64(e.index.DocFreq(w)) / float64(e.corpus.Len())
		if f < frac {
			frac = f
		}
	}
	return frac
}

// Result is one search result: title plus snippet.
type Result struct {
	Title   string
	Snippet string
}

// Search returns the top-k results for the query.
func (e *Engine) Search(query string, k int) []Result {
	hits := e.index.Search(query, k)
	out := make([]Result, 0, len(hits))
	for _, h := range hits {
		doc := e.corpus.Doc(h.Doc)
		out = append(out, Result{
			Title:   doc.Title,
			Snippet: textdb.Snippet(doc, query, snippetTokens),
		})
	}
	return out
}

// Resource is the Google-style context resource.
type Resource struct {
	engine *Engine
	// results per query and context terms returned per query.
	kResults int
	mTerms   int
	clock    *remote.Clock
}

// NewResource returns the resource. kResults <= 0 defaults to 10 (one
// result page), mTerms <= 0 defaults to 10. A non-nil clock charges the
// paper's per-query latency as virtual time.
func NewResource(e *Engine, kResults, mTerms int, clock *remote.Clock) *Resource {
	if kResults <= 0 {
		kResults = 10
	}
	if mTerms <= 0 {
		mTerms = 10
	}
	return &Resource{engine: e, kResults: kResults, mTerms: mTerms, clock: clock}
}

// Name implements the core.Resource convention.
func (r *Resource) Name() string { return "Google" }

// Context queries the engine with the term and returns the most frequent
// words and phrases across the returned titles and snippets, excluding
// the query's own words.
//
// Titles and snippets are the stored term streams of the result pages;
// a snippet is the window textdb.Snippet would cut (the whole text of a
// page of at most snippetTokens tokens), so the counts equal those over
// the re-tokenized result text. Words and bigrams are counted as integer
// keys, and only terms counted at least minSupport times become strings.
func (r *Resource) Context(term string) []string {
	if r.clock != nil {
		r.clock.Charge(r.Name(), remote.GooglePerQuery)
	}
	e := r.engine
	hits := e.index.Search(term, r.kResults)
	if len(hits) == 0 {
		return nil
	}
	// The query's own words are excluded from the context; the query's
	// non-stopword tokens place the snippet window. A word the pages never
	// use matches no stored token, so it needs no ID.
	var exclude, match []int32
	for _, w := range strings.Fields(lang.NormalizePhrase(term)) {
		if id, ok := e.vocab[w]; ok {
			exclude = append(exclude, id)
		}
	}
	for _, t := range lang.Tokenize(term) {
		if id, ok := e.vocab[t.Norm]; ok && !lang.IsStopword(t.Norm) {
			match = append(match, id)
		}
	}

	// Every counted occurrence of a word or bigram appends its key;
	// sorting the keys then lines each term's occurrences up in one run.
	n := 0
	for _, h := range hits {
		n += len(e.titles[h.Doc].ids) + min(len(e.texts[h.Doc].ids), snippetTokens)
	}
	keys := make([]uint64, 0, 2*n)
	count := func(s tokenStream, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := s.ids[i]
			ta := e.terms[a]
			aOut := slices.Contains(exclude, a)
			if !ta.short && !ta.stop && !aOut {
				keys = append(keys, termKey(a, -1))
			}
			if i+1 == hi || s.phraseStart[i+1] {
				continue
			}
			b := s.ids[i+1]
			if ta.stop || aOut || e.terms[b].stop || slices.Contains(exclude, b) {
				continue
			}
			keys = append(keys, termKey(a, b))
		}
	}
	var matched []bool
	for _, h := range hits {
		count(e.titles[h.Doc], 0, len(e.titles[h.Doc].ids))
		text := e.texts[h.Doc]
		lo, hi := 0, len(text.ids)
		if hi > snippetTokens {
			matched = slices.Grow(matched[:0], hi)[:hi]
			for i, id := range text.ids {
				matched[i] = slices.Contains(match, id)
			}
			lo = textdb.SnippetWindow(matched, snippetTokens)
			hi = lo + snippetTokens
		}
		count(text, lo, hi)
	}
	slices.Sort(keys)

	// Low-support terms are dropped before the ranking sort: the ranking
	// (frequency descending, then term) is a total order over distinct
	// terms, so the survivors keep the order they have among all terms.
	type counted struct {
		term string
		freq int
		df   int32 // bounds the pages holding the term; exact for a word
	}
	var ranked []counted
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j] == keys[i]; j++ {
		}
		if j-i < minSupport {
			continue
		}
		a, b := int32(keys[i]>>32), int32(uint32(keys[i]))-1
		c := counted{term: e.words[a], freq: j - i, df: e.terms[a].df}
		if b >= 0 {
			c.term += " " + e.words[b]
			c.df = min(c.df, e.terms[b].df)
		}
		ranked = append(ranked, c)
	}
	slices.SortFunc(ranked, func(x, y counted) int {
		if x.freq != y.freq {
			return y.freq - x.freq
		}
		return strings.Compare(x.term, y.term)
	})
	// Drop web-wide boilerplate: a term occurring on a large fraction of
	// ALL pages carries no query-specific signal. Real web-scale frequency
	// mining has this property implicitly — no single query inflates the
	// web-wide background — so the explicit cut only corrects for the
	// reduced scale of the simulated web. The fraction is
	// DocFreqFraction's: a bigram takes its rarer word's.
	pages := float64(e.corpus.Len())
	var out []string
	for _, c := range ranked {
		if float64(c.df)/pages > maxBackgroundDF {
			continue
		}
		out = append(out, c.term)
		if len(out) >= r.mTerms {
			break
		}
	}
	return out
}

// termKey packs a word (b < 0) or the bigram "a b" into one sort key.
func termKey(a, b int32) uint64 {
	return uint64(a)<<32 | uint64(uint32(b+1))
}

const (
	// snippetTokens is the snippet length in tokens, as Search cuts it.
	snippetTokens = 24
	// minSupport is the fewest occurrences across the result titles and
	// snippets a returned term needs; rarer terms are snippet noise.
	minSupport = 3
	// maxBackgroundDF is the boilerplate cutoff: terms present on more
	// than this fraction of all pages are never returned as context.
	maxBackgroundDF = 0.12
)
