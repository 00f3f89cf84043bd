package textdb

import (
	"fmt"
	"time"

	"repro/internal/lang"
)

// DocID identifies a document within a Corpus.
type DocID int32

// Document is one text item in the database. Title and Text are free text;
// Source and Date carry the provenance the news datasets use (SNB draws
// from 24 sources, MNYT spans a month).
type Document struct {
	ID     DocID
	Title  string
	Source string
	Date   time.Time
	Text   string
}

// Corpus is an append-only document store with interned per-document term
// sets. It is the "database D" of the paper.
type Corpus struct {
	docs     []*Document
	dict     *Dictionary
	docTerms [][]TermID // deduplicated term IDs per document, lazily built
	// index is the newest version of the corpus's keyword index, nil
	// until first used; each use extends it to every document (indexed).
	index *Index
}

// NewCorpus returns an empty corpus with a fresh dictionary.
func NewCorpus() *Corpus {
	return &Corpus{dict: NewDictionary()}
}

// NewCorpusSharing returns an empty corpus that interns terms into the
// given dictionary; used when several collections (e.g. the original and
// an expanded database) must agree on term IDs.
func NewCorpusSharing(dict *Dictionary) *Corpus {
	return &Corpus{dict: dict}
}

// Add appends a document, assigns its ID, and returns it.
func (c *Corpus) Add(doc *Document) DocID {
	doc.ID = DocID(len(c.docs))
	c.docs = append(c.docs, doc)
	c.docTerms = append(c.docTerms, nil)
	return doc.ID
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Doc returns the document with the given ID; it panics on out-of-range
// IDs (IDs come only from the corpus itself).
func (c *Corpus) Doc(id DocID) *Document { return c.docs[id] }

// Docs returns the underlying document slice; callers must not mutate it.
func (c *Corpus) Docs() []*Document { return c.docs }

// Dict returns the corpus dictionary.
func (c *Corpus) Dict() *Dictionary { return c.dict }

// DocTerms returns the deduplicated interned terms of a document (words
// and phrases, per ExtractTerms), computing and caching them on first use.
func (c *Corpus) DocTerms(id DocID) []TermID {
	if c.docTerms[id] != nil {
		return c.docTerms[id]
	}
	doc := c.docs[id]
	terms := ExtractTerms(doc.Title + ". " + doc.Text)
	ids := make([]TermID, 0, len(terms))
	seen := make(map[TermID]struct{}, len(terms))
	for _, t := range terms {
		tid := c.dict.Intern(t)
		if _, dup := seen[tid]; !dup {
			seen[tid] = struct{}{}
			ids = append(ids, tid)
		}
	}
	c.docTerms[id] = ids
	return ids
}

// Snapshot returns an immutable copy-on-write view of the corpus: a new
// Corpus sharing the dictionary, document pointers, cached term sets and
// a version of the keyword index. Later Adds to the original do not
// affect the snapshot, and documents are never mutated after Add, so a
// snapshot is safe for concurrent readers while the original keeps
// growing — the property the live ingestion subsystem relies on to serve
// one epoch while building the next. The lazily-built term sets are
// materialized and the index extended to every document first, under
// the caller's lock, so snapshot readers never write what the corpus
// shares with them; each document is tokenized for them once, so
// successive snapshots of a growing corpus tokenize only the documents
// added in between.
func (c *Corpus) Snapshot() *Corpus {
	for i := range c.docs {
		c.DocTerms(DocID(i))
	}
	return &Corpus{
		docs:     append([]*Document(nil), c.docs...),
		dict:     c.dict,
		docTerms: append([][]TermID(nil), c.docTerms...),
		index:    c.indexed(),
	}
}

// Validate checks internal consistency; it is used by tests and by the
// corpus generator's self-checks.
func (c *Corpus) Validate() error {
	for i, d := range c.docs {
		if d == nil {
			return fmt.Errorf("textdb: nil document at %d", i)
		}
		if d.ID != DocID(i) {
			return fmt.Errorf("textdb: document %d has ID %d", i, d.ID)
		}
		if d.Text == "" {
			return fmt.Errorf("textdb: document %d has empty text", i)
		}
	}
	return nil
}

// maxPhraseLen is the longest multi-word phrase counted as a term.
const maxPhraseLen = 3

// ExtractTerms returns the terms of a text: normalized unigrams (minus
// stopwords and single characters) plus 2- and 3-gram phrases that do not
// begin or end with a stopword and do not span sentence or phrase
// boundaries (commas, colons, brackets). This is the term universe over
// which document frequencies are computed (footnote 2 of the paper: "by
// term, we mean single words and multi-word phrases"). The result
// preserves first-occurrence order and may contain duplicates; callers
// that need a set deduplicate.
func ExtractTerms(text string) []string {
	tokens := lang.Tokenize(text)
	var out []string
	for _, sent := range lang.Phrases(tokens) {
		words := lang.Norms(sent)
		for i, w := range words {
			if len(w) > 1 && !lang.IsStopword(w) {
				out = append(out, w)
			}
			for n := 2; n <= maxPhraseLen; n++ {
				if i+n > len(words) {
					break
				}
				if lang.IsStopword(words[i]) || lang.IsStopword(words[i+n-1]) {
					continue
				}
				out = append(out, joinWords(words[i:i+n]))
			}
		}
	}
	return out
}

func joinWords(words []string) string {
	n := len(words) - 1
	for _, w := range words {
		n += len(w)
	}
	b := make([]byte, 0, n)
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, w...)
	}
	return string(b)
}
