// Package textdb implements the text database engine the facet-extraction
// pipeline runs against: a document store, a string-interning dictionary,
// per-document term extraction (words and multi-word phrases, per the
// paper's definition of "term"), document-frequency statistics with the
// rank table and logarithmic binning used by Step 3 of the algorithm, and
// an inverted index with BM25 ranking and snippet generation that backs
// the web-search simulator.
package textdb

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// TermID is a dense identifier for an interned term.
type TermID int32

// NoTerm is returned by Lookup for unknown terms.
const NoTerm TermID = -1

// Dictionary interns term strings to dense IDs. The zero value is not
// usable; call NewDictionary.
//
// A Dictionary is safe for concurrent use. The live-ingestion subsystem
// shares one dictionary between the mutating intake corpus and the
// immutable corpus snapshots served behind the HTTP API, so query-time
// lookups (keyword search resolving terms) race against intake-time
// interning; the RWMutex keeps both sides coherent at negligible cost on
// the batch path.
type Dictionary struct {
	mu     sync.RWMutex
	byTerm map[string]TermID
	terms  []string

	// order is every term ID interned before the last SortedIDs call,
	// ordered by term text. It is replaced, never modified, so a slice
	// SortedIDs returned stays valid; orderMu serializes the updates.
	orderMu sync.Mutex
	order   []TermID
}

// NewDictionary returns an empty dictionary. Its map grows with use
// rather than being sized up front: a dictionary may stay empty (a
// generated news corpus), hold about a thousand terms (a shard) or tens
// of thousands (a system's corpus with its phrases), and a table sized
// for 1<<16 terms costs about 3.5 MB to allocate and zero, and then to
// keep live and scan, in every one.
func NewDictionary() *Dictionary {
	return &Dictionary{byTerm: map[string]TermID{}}
}

// Intern returns the ID for the term, assigning a new one if needed.
func (d *Dictionary) Intern(term string) TermID {
	d.mu.RLock()
	id, ok := d.byTerm[term]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byTerm[term]; ok {
		return id
	}
	id = TermID(len(d.terms))
	d.terms = append(d.terms, term)
	d.byTerm[term] = id
	return id
}

// Lookup returns the ID for the term, or NoTerm if it was never interned.
func (d *Dictionary) Lookup(term string) TermID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.byTerm[term]; ok {
		return id
	}
	return NoTerm
}

// String returns the term text for an ID. It panics on an invalid ID.
func (d *Dictionary) String(id TermID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// SortedIDs returns all term IDs ordered by term text; used where
// deterministic iteration over a dictionary is required. The order is
// kept between calls: only the terms interned since the last call are
// sorted, and each is inserted at the place a binary search finds, so a
// growing dictionary (a live corpus ranking its terms every epoch) pays
// a copy of the order plus O(new terms · log vocabulary) comparisons per
// call. The result is shared and must not be modified.
func (d *Dictionary) SortedIDs() []TermID {
	d.orderMu.Lock()
	defer d.orderMu.Unlock()
	// Interning only appends, and a term's text never changes, so the
	// terms this slice holds can be read after the lock is released,
	// while Intern goes on appending.
	d.mu.RLock()
	terms := d.terms
	d.mu.RUnlock()
	old := d.order
	if len(old) == len(terms) {
		return old
	}
	fresh := make([]TermID, len(terms)-len(old))
	for i := range fresh {
		fresh[i] = TermID(len(old) + i)
	}
	slices.SortFunc(fresh, func(a, b TermID) int { return strings.Compare(terms[a], terms[b]) })
	merged := make([]TermID, 0, len(terms))
	for _, id := range fresh {
		i := sort.Search(len(old), func(i int) bool { return terms[old[i]] > terms[id] })
		merged = append(append(merged, old[:i]...), id)
		old = old[i:]
	}
	merged = append(merged, old...)
	d.order = merged
	return merged
}
