package textdb

// Hooks for the external test package, whose differential tests need the
// corpus generator (which imports this package).

// RefBuildIndex is the reference keyword index, tokenizing every document.
func RefBuildIndex(c *Corpus) *Index { return refBuildIndex(c) }

// IndexState returns what an index holds: its posting lists, its
// document lengths and their total.
func IndexState(ix *Index) (postings any, docLen []int32, totalLen int64) {
	return ix.postings, ix.docLen, ix.totalLen
}
