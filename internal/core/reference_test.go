package core

import (
	"sort"

	"repro/internal/textdb"
)

// refAssignDocTerms is the map-based AssignDocTerms AssignDocTerms
// replaced, kept as the reference for its differential tests: it tests
// every text term of a document by its string and walks every vote.
func refAssignDocTerms(corpus *textdb.Corpus, important [][]string, votes []map[string]int, terms []string) [][]string {
	termSet := make(map[string]bool, len(terms))
	for _, t := range terms {
		termSet[t] = true
	}
	dict := corpus.Dict()
	docTerms := make([][]string, corpus.Len())
	for d := 0; d < corpus.Len(); d++ {
		present := map[string]bool{}
		for _, id := range corpus.DocTerms(textdb.DocID(d)) {
			if s := dict.String(id); termSet[s] {
				present[s] = true
			}
		}
		need := 2
		if len(important[d]) < 2 {
			need = 1
		}
		for c, v := range votes[d] {
			if v >= need && termSet[c] {
				present[c] = true
			}
		}
		for t := range present {
			docTerms[d] = append(docTerms[d], t)
		}
		sort.Strings(docTerms[d])
	}
	return docTerms
}
