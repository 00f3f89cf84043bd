package textdb

import "math"

// DFTable accumulates document frequencies over a collection. The
// comparative term-frequency analysis (Step 3, Figure 3 of the paper)
// builds one table for the original database D and one for the
// contextualized database C(D), both sharing a dictionary.
type DFTable struct {
	dict *Dictionary
	df   []int32
	docs int
}

// NewDFTable returns an empty table counting into the given dictionary.
func NewDFTable(dict *Dictionary) *DFTable {
	return &DFTable{dict: dict}
}

// AddDoc counts one document given its deduplicated term IDs.
func (t *DFTable) AddDoc(termIDs []TermID) {
	t.docs++
	for _, id := range termIDs {
		t.ensure(id)
		t.df[id]++
	}
}

// ensure grows the count array to cover id. Growth doubles capacity so
// a stream of rising term IDs costs amortized O(1) allocations, and
// reslicing into existing capacity allocates nothing (the re-exposed
// region is zeroed explicitly rather than trusting its history — the
// table never shrinks today, but a stale nonzero count would corrupt
// frequencies silently).
func (t *DFTable) ensure(id TermID) {
	need := int(id) + 1
	if need <= len(t.df) {
		return
	}
	if need <= cap(t.df) {
		clear(t.df[len(t.df):need])
		t.df = t.df[:need]
		return
	}
	newCap := 2 * cap(t.df)
	if newCap < need {
		newCap = need
	}
	grown := make([]int32, need, newCap)
	copy(grown, t.df)
	t.df = grown
}

// Clone returns an independent copy of the table (sharing the
// dictionary). The live ingestion subsystem clones its incrementally
// maintained tables under lock and scores candidates off-lock.
func (t *DFTable) Clone() *DFTable {
	return &DFTable{dict: t.dict, df: append([]int32(nil), t.df...), docs: t.docs}
}

// Merge folds another table's counts into t. Document frequencies are
// additive across disjoint document shards, so the parallel batch
// pipeline has each worker accumulate a private delta table over its
// shard and merges the deltas here before the comparative analysis —
// the result is identical to counting every document into one table.
// Both tables must share t's dictionary.
func (t *DFTable) Merge(other *DFTable) {
	if other == nil || other.docs == 0 && len(other.df) == 0 {
		return
	}
	t.docs += other.docs
	if n := len(other.df); n > 0 {
		t.ensure(TermID(n - 1))
		for id, c := range other.df {
			t.df[id] += c
		}
	}
}

// DF returns the document frequency of a term (0 for never-seen terms).
func (t *DFTable) DF(id TermID) int {
	if int(id) >= len(t.df) || id < 0 {
		return 0
	}
	return int(t.df[id])
}

// NumDocs returns the number of documents counted.
func (t *DFTable) NumDocs() int { return t.docs }

// Dict returns the dictionary the table counts into.
func (t *DFTable) Dict() *Dictionary { return t.dict }

// RankTable assigns each term its frequency rank (1 = most frequent).
// Terms absent from the collection share the sentinel rank maxRank+1,
// which places them in the deepest bin — exactly the behaviour Step 3
// needs for facet terms that never occur in the original database.
type RankTable struct {
	rank    []int32
	maxRank int32
}

// Ranks computes the rank table for the current counts. Ties are broken
// by term text so that results are deterministic.
func (t *DFTable) Ranks() *RankTable {
	pos, n := t.byDF(1)
	// pos becomes the rank slice: 1-based ranks, unranked terms last.
	for id, p := range pos {
		if p < 0 {
			pos[id] = int32(n) + 1
		} else {
			pos[id] = p + 1
		}
	}
	return &RankTable{rank: pos, maxRank: int32(n)}
}

// byDF orders the terms counted in at least minDF (>= 1) documents by
// document frequency, highest first, ties by term text. It returns, per
// term ID, the term's 0-based position in that order (-1 for a term
// below minDF), and how many terms qualified. It is one counting pass
// over the dictionary's text order, which the dictionary keeps between
// calls, instead of a comparison sort of the vocabulary. Every counted
// term must be interned in the table's dictionary.
func (t *DFTable) byDF(minDF int) (pos []int32, n int) {
	maxDF := 0
	for _, c := range t.df {
		maxDF = max(maxDF, int(c))
	}
	pos = make([]int32, len(t.df))
	for id := range pos {
		pos[id] = -1
	}
	if minDF > maxDF {
		return pos, 0
	}
	// next[c] starts as the number of qualifying terms counted in more
	// than c documents: the position of the first term counted in c.
	next := make([]int32, maxDF+1)
	for _, c := range t.df {
		if int(c) >= minDF {
			next[c]++
		}
	}
	var above int32
	for c := maxDF; c >= minDF; c-- {
		above, next[c] = above+next[c], above
	}
	for _, id := range t.dict.SortedIDs() {
		if int(id) >= len(t.df) {
			continue
		}
		if c := t.df[id]; int(c) >= minDF {
			pos[id] = next[c]
			next[c]++
			n++
		}
	}
	if n != int(above) {
		panic("textdb: DF table counts terms its dictionary does not hold")
	}
	return pos, n
}

// Rank returns the 1-based frequency rank of the term; unseen terms get
// maxRank+1.
func (r *RankTable) Rank(id TermID) int {
	if int(id) >= len(r.rank) || id < 0 {
		return int(r.maxRank + 1)
	}
	return int(r.rank[id])
}

// MaxRank returns the number of ranked (seen) terms.
func (r *RankTable) MaxRank() int { return int(r.maxRank) }

// Bin implements the paper's binning function B(t) = ceil(log2(Rank(t))).
// Rank 1 maps to bin 0.
func Bin(rank int) int {
	if rank <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(rank))))
}

// TopTerms returns the k most frequent terms (by document frequency,
// ties by text), excluding terms with df below minDF.
func (t *DFTable) TopTerms(k, minDF int) []TermID {
	pos, n := t.byDF(max(minDF, 1))
	out := make([]TermID, min(k, n))
	for id, p := range pos {
		if p >= 0 && int(p) < len(out) {
			out[p] = TermID(id)
		}
	}
	return out
}
