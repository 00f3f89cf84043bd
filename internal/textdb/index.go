package textdb

import (
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
//
// An Index is one version of its corpus's keyword index and never
// changes. The corpus keeps its newest version and extends it with the
// documents added since each time it is used (BuildIndex,
// Corpus.Snapshot), so a growing corpus tokenizes each document once.
// A new version copies the list headers into an array sized once from
// the dictionary and appends the new documents' postings to the lists'
// arrays, past the end any earlier version reads; versions share those
// append-only arrays, and only the newest version of the corpus that
// built it is ever extended in place.
type Index struct {
	dict *Dictionary
	// owner is the corpus that may append to the arrays behind postings
	// and docLen; any other corpus extending this version copies a list
	// before appending to it.
	owner    *Corpus
	postings [][]posting // by term ID, each list in document order
	docLen   []int32
	totalLen int64
}

// BM25 parameters (standard Robertson/Sparck-Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// BuildIndex returns the corpus's keyword index over every document.
// Stopwords are not indexed. Title tokens are counted twice, a
// conventional field boost. The corpus keeps the index and extends it
// with the documents added since the last call, so indexing a snapshot
// of a growing corpus tokenizes only the documents no earlier index or
// snapshot saw, and indexing a corpus twice builds one index.
func BuildIndex(c *Corpus) *Index { return c.indexed() }

// indexed extends the corpus's keyword index to all of its documents and
// returns that version.
func (c *Corpus) indexed() *Index {
	if c.index == nil {
		c.index = &Index{dict: c.dict, owner: c}
	}
	prev := c.index
	from := len(prev.docLen)
	if from == len(c.docs) {
		return prev // a snapshot's readers get here, and write nothing
	}
	ix := &Index{
		dict:     c.dict,
		owner:    c,
		postings: make([][]posting, max(c.dict.Len(), len(prev.postings))),
		docLen:   prev.docLen,
		totalLen: prev.totalLen,
	}
	copy(ix.postings, prev.postings)
	if prev.owner != c {
		for id, list := range ix.postings {
			ix.postings[id] = slices.Clip(list)
		}
		ix.docLen = slices.Clip(ix.docLen)
	}
	counts := map[TermID]int32{}
	for d := from; d < len(c.docs); d++ {
		clear(counts)
		var n int32
		doc := c.docs[d]
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
		ix.docLen = append(ix.docLen, n)
		ix.totalLen += int64(n)
		// Documents are added in ID order, so each list stays in
		// document order; the order lists are appended to is immaterial.
		for id, tf := range counts {
			if int(id) >= len(ix.postings) {
				// A term the document interned after the array was sized.
				ix.postings = append(ix.postings, make([][]posting, int(id)+1-len(ix.postings))...)
			}
			ix.postings[id] = append(ix.postings[id], posting{DocID(d), tf})
		}
	}
	c.index = ix
	return ix
}

// list returns the term's posting list; nil for a term this version
// holds no document of (including terms interned after it was built).
func (ix *Index) list(id TermID) []posting {
	if id < 0 || int(id) >= len(ix.postings) {
		return nil
	}
	return ix.postings[id]
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
		if id := ix.dict.Lookup(tok.Norm); id != NoTerm {
			queryIDs = append(queryIDs, id)
		}
	}
	if len(queryIDs) == 0 {
		return nil
	}
	n := float64(len(ix.docLen))
	avgdl := 1.0
	if len(ix.docLen) > 0 {
		avgdl = float64(ix.totalLen) / n
	}
	scores := map[DocID]float64{}
	for _, qid := range queryIDs {
		plist := ix.list(qid)
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
		id := ix.dict.Lookup(tok.Norm)
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
	hits := ix.Search(query, len(ix.docLen))
	// Filter to documents matched by every term.
	need := len(queryIDs)
	matched := map[DocID]int{}
	for _, qid := range queryIDs {
		for _, p := range ix.list(qid) {
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
	return len(ix.list(ix.dict.Lookup(strings.ToLower(term))))
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
