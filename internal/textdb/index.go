package textdb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
)

// posting records one document's term frequency for a term.
type posting struct {
	doc DocID
	tf  int32
}

// Index is an inverted index over the unigram tokens of a corpus with
// Okapi BM25 ranking. It backs the web-search simulator (the paper's
// Google resource) and the keyword-search side of the user study.
type Index struct {
	corpus   *Corpus
	postings map[TermID][]posting
	docLen   []int32
	totalLen int64
}

// BM25 parameters (standard Robertson/Sparck-Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// BuildIndex indexes every document in the corpus. Stopwords are not
// indexed. Title tokens are counted twice, a conventional field boost.
// Each document's row (its distinct indexed terms with their counts) is
// built once and kept by the corpus, so indexing a snapshot of a growing
// corpus tokenizes only the documents no earlier index or snapshot saw.
func BuildIndex(c *Corpus) *Index {
	ix := &Index{
		corpus:   c,
		postings: map[TermID][]posting{}, // grows like the dictionary
		docLen:   make([]int32, c.Len()),
	}
	counts := map[TermID]int32{}
	for i := range c.docs {
		doc := DocID(i)
		row := c.indexRow(doc, counts)
		ix.docLen[doc] = row.length
		ix.totalLen += int64(row.length)
		// Deterministic posting order: docs are added in ID order.
		for _, e := range row.terms {
			ix.postings[e.id] = append(ix.postings[e.id], posting{doc, e.tf})
		}
	}
	return ix
}

// indexEntry is one distinct indexed term of a document with its count.
type indexEntry struct {
	id TermID
	tf int32
}

// indexRow is one document's row of the keyword index: its distinct
// indexed terms in term-ID order, and its length, the sum of their
// counts. A nil terms slice marks a row not built yet.
type indexRow struct {
	terms  []indexEntry
	length int32
}

// indexRow returns the document's keyword-index row, building and
// caching it on first use. counts is scratch space, cleared on entry.
func (c *Corpus) indexRow(id DocID, counts map[TermID]int32) indexRow {
	if row := c.indexRows[id]; row.terms != nil {
		return row
	}
	clear(counts)
	var n int32
	doc := c.docs[id]
	for _, tok := range lang.Tokenize(doc.Text) {
		if lang.IsStopword(tok.Norm) || len(tok.Norm) < 2 {
			continue
		}
		counts[c.dict.Intern(tok.Norm)]++
		n++
	}
	for _, tok := range lang.Tokenize(doc.Title) {
		if lang.IsStopword(tok.Norm) || len(tok.Norm) < 2 {
			continue
		}
		counts[c.dict.Intern(tok.Norm)] += 2
		n += 2
	}
	row := indexRow{terms: make([]indexEntry, 0, len(counts)), length: n}
	for id, tf := range counts {
		row.terms = append(row.terms, indexEntry{id, tf})
	}
	slices.SortFunc(row.terms, func(a, b indexEntry) int { return cmp.Compare(a.id, b.id) })
	c.indexRows[id] = row
	return row
}

// Hit is one search result.
type Hit struct {
	Doc   DocID
	Score float64
}

// Search ranks documents against the query with BM25 and returns the top
// k hits. The query is tokenized with the same normalization as indexing.
func (ix *Index) Search(query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	var queryIDs []TermID
	for _, tok := range lang.Tokenize(query) {
		if lang.IsStopword(tok.Norm) || len(tok.Norm) < 2 {
			continue
		}
		if id := ix.corpus.dict.Lookup(tok.Norm); id != NoTerm {
			queryIDs = append(queryIDs, id)
		}
	}
	if len(queryIDs) == 0 {
		return nil
	}
	n := float64(ix.corpus.Len())
	avgdl := 1.0
	if ix.corpus.Len() > 0 {
		avgdl = float64(ix.totalLen) / float64(ix.corpus.Len())
	}
	scores := map[DocID]float64{}
	for _, qid := range queryIDs {
		plist := ix.postings[qid]
		if len(plist) == 0 {
			continue
		}
		idf := idfBM25(n, float64(len(plist)))
		for _, p := range plist {
			tf := float64(p.tf)
			dl := float64(ix.docLen[p.doc])
			scores[p.doc] += idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgdl))
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{doc, s})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Doc < hits[b].Doc
	})
	if k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

func idfBM25(n, df float64) float64 {
	// The +0.5 smoothing keeps idf positive for df close to n.
	v := (n - df + 0.5) / (df + 0.5)
	if v < 1e-9 {
		v = 1e-9
	}
	return math.Log(1 + v)
}

// SearchAll is Search with conjunctive (AND) semantics: only documents
// containing every query term are returned, ranked by BM25. Web engines
// default to AND; the browse engine uses this for its keyword filter.
func (ix *Index) SearchAll(query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	var queryIDs []TermID
	seen := map[TermID]bool{}
	for _, tok := range lang.Tokenize(query) {
		if lang.IsStopword(tok.Norm) || len(tok.Norm) < 2 {
			continue
		}
		id := ix.corpus.dict.Lookup(tok.Norm)
		if id == NoTerm {
			return nil // a term with no postings empties the conjunction
		}
		if !seen[id] {
			seen[id] = true
			queryIDs = append(queryIDs, id)
		}
	}
	if len(queryIDs) == 0 {
		return nil
	}
	hits := ix.Search(query, ix.corpus.Len())
	// Filter to documents matched by every term.
	need := len(queryIDs)
	matched := map[DocID]int{}
	for _, qid := range queryIDs {
		for _, p := range ix.postings[qid] {
			matched[p.doc]++
		}
	}
	out := hits[:0]
	for _, h := range hits {
		if matched[h.Doc] >= need {
			out = append(out, h)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// DocFreq returns the number of documents containing the term.
func (ix *Index) DocFreq(term string) int {
	id := ix.corpus.dict.Lookup(strings.ToLower(term))
	if id == NoTerm {
		return 0
	}
	return len(ix.postings[id])
}

// Snippet extracts a window of approximately windowTokens tokens from the
// document centered on the densest cluster of query-term occurrences; it
// is what the web-search simulator returns as the "result snippet".
func Snippet(doc *Document, query string, windowTokens int) string {
	if windowTokens <= 0 {
		windowTokens = 30
	}
	queryTerms := map[string]bool{}
	for _, tok := range lang.Tokenize(query) {
		if !lang.IsStopword(tok.Norm) {
			queryTerms[tok.Norm] = true
		}
	}
	tokens := lang.Tokenize(doc.Text)
	if len(tokens) == 0 {
		return ""
	}
	if len(tokens) <= windowTokens {
		return doc.Text
	}
	match := make([]bool, len(tokens))
	for i, t := range tokens {
		match[i] = queryTerms[t.Norm]
	}
	bestStart := SnippetWindow(match, windowTokens)
	start := tokens[bestStart].Start
	end := tokens[bestStart+windowTokens-1].End
	return doc.Text[start:end]
}

// SnippetWindow returns the first token offset of Snippet's window: of
// all windows of windowTokens consecutive tokens, the first holding the
// most query matches (match[i] reports whether token i is a query
// term). It requires len(match) >= windowTokens > 0.
func SnippetWindow(match []bool, windowTokens int) int {
	// Slide a token window, counting query matches.
	bestStart, bestCount := 0, -1
	count := 0
	for i := 0; i < len(match); i++ {
		if match[i] {
			count++
		}
		if i >= windowTokens && match[i-windowTokens] {
			count--
		}
		if i >= windowTokens-1 {
			start := i - windowTokens + 1
			if count > bestCount {
				bestCount = count
				bestStart = start
			}
		}
	}
	return bestStart
}
