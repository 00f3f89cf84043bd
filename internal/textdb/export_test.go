package textdb

// Hooks for the external test package, whose differential tests need the
// corpus generator (which imports this package).

// RefBuildIndex is the reference keyword index, tokenizing every document.
func RefBuildIndex(c *Corpus) *Index { return refBuildIndex(c) }

// IndexState returns what an index holds: its non-empty posting lists
// by term, its document lengths (never nil) and their total. The lists
// are keyed by term so that indexes whose header arrays were sized at
// different dictionary sizes compare equal when they hold the same
// postings.
func IndexState(ix *Index) (postings any, docLen []int32, totalLen int64) {
	byTerm := map[TermID][]posting{}
	for id, list := range ix.postings {
		if len(list) > 0 {
			byTerm[TermID(id)] = list
		}
	}
	return byTerm, append([]int32{}, ix.docLen...), ix.totalLen
}
