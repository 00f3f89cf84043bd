package textdb

import (
	"sort"

	"repro/internal/lang"
)

// This file keeps the implementations the rank tables and the keyword
// index replaced, as references for the differential tests: a comparison
// sort of the counted vocabulary by (document frequency, term text) per
// call, and an index that tokenizes every document on every build.

// refRanks is Ranks as a comparison sort of the counted terms.
func refRanks(t *DFTable) *RankTable {
	type entry struct {
		id TermID
		df int32
	}
	entries := make([]entry, 0, len(t.df))
	for id, df := range t.df {
		if df > 0 {
			entries = append(entries, entry{TermID(id), df})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].df != entries[b].df {
			return entries[a].df > entries[b].df
		}
		return t.dict.String(entries[a].id) < t.dict.String(entries[b].id)
	})
	rt := &RankTable{
		rank:    make([]int32, len(t.df)),
		maxRank: int32(len(entries)),
	}
	for i := range rt.rank {
		rt.rank[i] = rt.maxRank + 1
	}
	for i, e := range entries {
		rt.rank[e.id] = int32(i + 1)
	}
	return rt
}

// refTopTerms is TopTerms as a comparison sort of the counted terms.
func refTopTerms(t *DFTable, k, minDF int) []TermID {
	type entry struct {
		id TermID
		df int32
	}
	var entries []entry
	for id, df := range t.df {
		if int(df) >= minDF && df > 0 {
			entries = append(entries, entry{TermID(id), df})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].df != entries[b].df {
			return entries[a].df > entries[b].df
		}
		return t.dict.String(entries[a].id) < t.dict.String(entries[b].id)
	})
	if k > len(entries) {
		k = len(entries)
	}
	out := make([]TermID, k)
	for i := 0; i < k; i++ {
		out[i] = entries[i].id
	}
	return out
}

// refBuildIndex is BuildIndex tokenizing every document of the corpus.
// It builds a fresh index, kept by no corpus.
func refBuildIndex(c *Corpus) *Index {
	ix := &Index{
		dict:   c.dict,
		docLen: make([]int32, c.Len()),
	}
	postings := map[TermID][]posting{}
	counts := map[TermID]int32{}
	for _, doc := range c.Docs() {
		clear(counts)
		var n int32
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
		ix.docLen[doc.ID] = n
		ix.totalLen += int64(n)
		// Deterministic posting order: docs are added in ID order.
		ids := make([]TermID, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			postings[id] = append(postings[id], posting{doc.ID, counts[id]})
		}
	}
	ix.postings = make([][]posting, c.dict.Len())
	for id, list := range postings {
		ix.postings[id] = list
	}
	return ix
}
