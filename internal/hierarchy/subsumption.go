// Package hierarchy builds browsing hierarchies over extracted facet
// terms. The primary algorithm is the subsumption method of Sanderson &
// Croft (SIGIR 1999), which the paper uses for hierarchy construction
// ("we used the subsumption algorithm ... that gave satisfactory
// results"): term x subsumes term y when P(x|y) ≥ θ (θ = 0.8) and
// P(y|x) < 1, with probabilities estimated from document co-occurrence.
//
// Construction is pluggable: every strategy implements Builder and is
// selected by name through the Register/Lookup/Names registry. Four are
// built in — "subsumption" (the paper's choice), "treemin" (a
// Stoica–Hearst-style tree-minimization builder over WordNet hypernym
// paths, the prior work the paper contrasts with), "evidence" (a
// Snow-style evidence-combination builder, the "newer algorithms [5] may
// give even better results" note), and "agglomerative" (average-linkage
// co-occurrence clustering over the posting bitsets).
package hierarchy

import (
	"context"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Node is one term in a hierarchy.
type Node struct {
	Term     string
	DF       int // document frequency of the term in the analyzed collection
	Children []*Node
	Parent   *Node
}

// Forest is a set of per-facet trees.
type Forest struct {
	Roots []*Node
	index map[string]*Node
}

// Find returns the node for a term, if present.
func (f *Forest) Find(term string) (*Node, bool) {
	n, ok := f.index[term]
	return n, ok
}

// Size returns the number of nodes in the forest.
func (f *Forest) Size() int { return len(f.index) }

// Walk visits every node depth-first, parents before children.
func (f *Forest) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, r := range f.Roots {
		rec(r, 0)
	}
}

// subsumptionBuilder is the registered "subsumption" strategy, the
// paper's choice. For every term y, the chosen parent is the most
// specific subsumer: the subsuming term x with the smallest df(x) (ties
// broken by higher P(x|y), then lexicographically), which produces
// deeper, more informative trees than attaching everything to the most
// frequent subsumer. ctx is checked between terms of the sharded
// O(terms²) sweep, and a canceled build returns ctx's error instead of a
// partially attached forest.
type subsumptionBuilder struct{}

// Name implements Builder.
func (subsumptionBuilder) Name() string { return "subsumption" }

// Build implements Builder.
func (subsumptionBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.8
	}
	if err := checkThreshold(cfg.Threshold); err != nil {
		return nil, err
	}
	if cfg.MinDF == 0 {
		cfg.MinDF = 2
	}
	if cfg.MaxChildDFFraction == 0 {
		cfg.MaxChildDFFraction = 0.6
	}
	st := newTermStats(terms, docTerms, cfg.MinDF)
	uniq, df, alive, nDocs := st.uniq, st.df, st.alive, st.nDocs

	// Parent selection. A subsumer must be strictly more general
	// (df(x) > df(y)): with P(x|y)·df(y) = P(y|x)·df(x), this is exactly
	// Sanderson & Croft's directionality P(x|y) > P(y|x); enforcing it on
	// document frequencies keeps the forest layered even when the
	// co-occurrence estimates saturate.
	//
	// Each term's parent is selected independently from the frozen
	// bitsets, so the sweep shards across workers; every worker writes
	// only its own terms' slots, and the slot array is folded into
	// parentOf in deterministic order afterwards. The sweep is pruned:
	// P(x|y) ≥ θ > 0 needs co-occurrence, so only the candidate partners
	// the pairIndex yields can subsume y and everything else is provably
	// skippable. The dense all-pairs reference lives in the tests
	// (subsumptionDense), which prove the two byte-identical.
	parents := make([]int, len(alive))
	maxChildDF := int(cfg.MaxChildDFFraction * float64(nDocs))
	ix := newPairIndex(st)
	nw := sweepWorkers(cfg.Workers)
	scratches := make([]*pairScratch, nw)
	counts := make([]pairCounts, nw)
	err := parallel.For(ctx, len(alive), cfg.Workers, func(w, yi int) {
		parents[yi] = -1
		y := alive[yi]
		// Terms rejected by the cheap structural guards skip their whole
		// dense row — count it so candidate+skipped always reconstructs
		// the all-pairs iteration space.
		if df[y] == 0 { // degenerate posting list: nothing co-occurs with y
			counts[w].skipped += int64(len(alive) - 1)
			return
		}
		if nDocs > 0 && df[y] > maxChildDF { // saturated term: keep as a facet-dimension root
			counts[w].skipped += int64(len(alive) - 1)
			return
		}
		sc := scratches[w]
		if sc == nil {
			sc = ix.newScratch()
			scratches[w] = sc
		}
		var best parentCand
		have := false
		yielded := int64(0)
		ix.forCandidates(yi, sc, thresholdMinCo(cfg.Threshold, df[y]), func(xi, co int) {
			yielded++
			x := alive[xi]
			if df[x] <= df[y] {
				return
			}
			counts[w].evaluated++
			pxy := float64(co) / float64(df[y])
			pyx := float64(co) / float64(df[x])
			if pxy < cfg.Threshold || pyx >= 1 {
				return
			}
			cand := parentCand{idx: x, pxy: pxy, dfx: df[x], term: uniq[x]}
			if !have || moreSpecific(&cand, &best) {
				best, have = cand, true
			}
		})
		counts[w].candidate += yielded
		counts[w].skipped += int64(len(alive)-1) - yielded
		if have {
			parents[yi] = best.idx
		}
	})
	if err != nil {
		return nil, err
	}
	publishPairCounts(cfg.Metrics, counts, len(alive))
	parentOf := make(map[int]int)
	for yi, y := range alive {
		if parents[yi] >= 0 {
			parentOf[y] = parents[yi]
		}
	}
	return assembleForest(st, parentOf), nil
}

// checkThreshold rejects an attachment threshold outside [0,1]. NaN is
// rejected too: every comparison against it is false, so a NaN θ would
// accept every pair instead of none.
func checkThreshold(threshold float64) error {
	if math.IsNaN(threshold) || threshold < 0 || threshold > 1 {
		return fmt.Errorf("hierarchy: threshold %v outside [0,1]", threshold)
	}
	return nil
}

// thresholdMinCo returns the smallest co-occurrence count whose
// P(x|y) = co/dfY reaches threshold under float64 arithmetic — the
// generator floor that lets the sweep skip pairs the P(x|y) ≥ θ test
// would reject anyway. The ceil estimate is corrected against the exact
// float predicate the scoring code uses (0.8·5 rounds above 4 in
// float64, yet 4.0/5.0 == 0.8), so the pruned sweep never drops a pair
// the dense reference would accept.
func thresholdMinCo(threshold float64, dfY int) int {
	c := int(math.Ceil(threshold * float64(dfY)))
	if c < 1 {
		c = 1
	}
	for c > 1 && float64(c-1)/float64(dfY) >= threshold {
		c--
	}
	for float64(c)/float64(dfY) < threshold {
		c++
	}
	return c
}

// parentCand is a candidate subsumer for a term.
type parentCand struct {
	idx  int
	pxy  float64
	dfx  int
	term string
}

// moreSpecific orders parent candidates: smaller df first (most specific
// subsumer), then higher P(x|y), then term text.
func moreSpecific(a, b *parentCand) bool {
	if a.dfx != b.dfx {
		return a.dfx < b.dfx
	}
	if a.pxy != b.pxy {
		return a.pxy > b.pxy
	}
	return a.term < b.term
}
