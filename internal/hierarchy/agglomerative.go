package hierarchy

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// agglomerativeBuilder is the registered "agglomerative" strategy:
// average-linkage agglomerative clustering over the per-term posting
// bitsets, following the cluster-then-name-then-merge shape of systems
// like OpenClio. Where subsumption asks an asymmetric question ("does x
// appear in almost every document y appears in?"), clustering asks a
// symmetric one ("do x and y cover similar document sets?") and derives
// the hierarchy from the merge order:
//
//  1. cluster — every surviving term starts as its own cluster; pairwise
//     similarity is the Jaccard overlap of posting lists, |x∧y| / |x∨y|,
//     computed with bitset.AndCount (only co-occurring pairs can be
//     similar, so the sweep skips empty intersections).
//  2. name — a cluster is named by its highest-DF member (ties broken
//     lexicographically): the most general term stands for the group.
//  3. merge — the closest pair of clusters (average linkage, Lance–
//     Williams update) merges while similarity ≥ MinSimilarity; the
//     losing cluster's name term attaches as a child of the winning
//     name. Each term therefore gains at most one parent, with
//     df(parent) ≥ df(child), so the forest is acyclic and DF-layered
//     by construction.
//
// The merge order is fully deterministic (ties on similarity resolve by
// the lexicographically smallest name pair) and workers only shard the
// initial similarity matrix, so the forest is identical at every worker
// count.
type agglomerativeBuilder struct{}

// Name implements Builder.
func (agglomerativeBuilder) Name() string { return "agglomerative" }

// Build implements Builder.
func (agglomerativeBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	minSim := cfg.Agglomerative.MinSimilarity
	if minSim == 0 {
		minSim = 0.25
	}
	if minSim < 0 || minSim > 1 {
		return nil, fmt.Errorf("hierarchy: min similarity %v outside [0,1]", minSim)
	}
	if cfg.MinDF == 0 {
		cfg.MinDF = 2
	}
	return aggBuildSparse(ctx, newTermStats(terms, docTerms, cfg.MinDF), minSim, cfg)
}

// aggBuildSparse is the clustering path: the similarity matrix
// is built sparse from the pairIndex — only pairs with nonzero posting
// intersection get an entry, everything else is an implicit 0 — and the
// merge loop scans neighbor maps instead of n×n rows. Zero-DF terms
// (possible when the caller disables the MinDF floor) have no postings,
// so they are never given a cluster slot's worth of work: they start
// inactive and fall out as roots, exactly as the dense reference leaves
// them. The merge order reproduces the dense scan's tie-break (highest
// similarity, then smallest slot pair) explicitly, so it renders the
// same forests as the dense reference in the tests (aggBuildDense).
func aggBuildSparse(ctx context.Context, st *termStats, minSim float64, cfg BuildConfig) (*Forest, error) {
	uniq, df, alive := st.uniq, st.df, st.alive
	n := len(alive)

	// Sparse pairwise Jaccard similarity. Row i is written only by the
	// worker that owns it; both directions of each pair compute the same
	// co/union division, so the symmetric entries are identical floats.
	sims := make([]map[int32]float64, n)
	ix := newPairIndex(st)
	nw := sweepWorkers(cfg.Workers)
	scratches := make([]*pairScratch, nw)
	counts := make([]pairCounts, nw)
	err := parallel.For(ctx, n, cfg.Workers, func(w, i int) {
		if df[alive[i]] == 0 {
			// Degenerate posting list: no co-occurrence, no row. The
			// dense sweep would still have iterated its n-1-i pairs.
			counts[w].skipped += int64(n - 1 - i)
			return
		}
		sc := scratches[w]
		if sc == nil {
			sc = ix.newScratch()
			scratches[w] = sc
		}
		var row map[int32]float64
		ix.forCandidates(i, sc, 1, func(j, co int) {
			if j > i {
				// Count each unordered pair once, mirroring the dense
				// sweep's j > i iteration space.
				counts[w].candidate++
				counts[w].evaluated++
			}
			union := df[alive[i]] + df[alive[j]] - co
			if row == nil {
				row = make(map[int32]float64)
			}
			row[int32(j)] = float64(co) / float64(union)
		})
		sims[i] = row
		counts[w].skipped += int64(n-1-i) - countGreater(row, int32(i))
	})
	if err != nil {
		return nil, err
	}
	publishPairCounts(cfg.Metrics, counts, n)

	// Each cluster tracks its size (for the average-linkage update) and
	// its name: the global index of the highest-DF member. Terms with
	// empty posting lists never cluster — skip them up front.
	active := make([]bool, n)
	size := make([]int, n)
	name := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = df[alive[i]] > 0
		size[i] = 1
		name[i] = alive[i]
	}

	parentOf := make(map[int]int)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Closest active pair. The dense reference scans i asc, j asc
		// with a strict >, i.e. ties resolve to the smallest (i, j)
		// slot pair; neighbor maps iterate in random order, so that
		// tie-break is applied explicitly here.
		bestI, bestJ, bestSim := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j32, s := range sims[i] {
				j := int(j32)
				if j <= i || !active[j] || s <= 0 {
					continue
				}
				if s > bestSim || (s == bestSim && (i < bestI || (i == bestI && j < bestJ))) {
					bestI, bestJ, bestSim = i, j, s
				}
			}
		}
		if bestI < 0 || bestSim < minSim {
			break
		}
		// Name the merged cluster and record the hierarchy edge: the
		// less general name attaches under the more general one.
		winner, loser := name[bestI], name[bestJ]
		if aggMoreGeneral(df, uniq, loser, winner) {
			winner, loser = loser, winner
		}
		parentOf[loser] = winner
		// Lance–Williams average-linkage update into slot bestI: fold
		// bestJ's neighbors into bestI's, treating missing entries as
		// the 0.0 they are in the dense matrix. The arithmetic matches
		// the dense update expression exactly (si·a + sj·b with a zero
		// operand yields the same float as dropping the zero term, both
		// sides being non-negative).
		si, sj := float64(size[bestI]), float64(size[bestJ])
		for k32, b := range sims[bestJ] {
			k := int(k32)
			if k == bestI || !active[k] {
				continue
			}
			a := sims[bestI][k32] // 0 when absent, as in the dense matrix
			merged := (si*a + sj*b) / (si + sj)
			sims[bestI][k32] = merged
			sims[k][int32(bestI)] = merged
			delete(sims[k], int32(bestJ))
		}
		for k32, a := range sims[bestI] {
			k := int(k32)
			if k == bestJ || !active[k] {
				continue
			}
			if _, shared := sims[bestJ][k32]; shared {
				continue // folded above
			}
			merged := (si * a) / (si + sj)
			sims[bestI][k32] = merged
			sims[k][int32(bestI)] = merged
		}
		delete(sims[bestI], int32(bestJ))
		size[bestI] += size[bestJ]
		name[bestI] = winner
		active[bestJ] = false
		sims[bestJ] = nil
	}
	return assembleForest(st, parentOf), nil
}

// aggMoreGeneral reports whether term a should name a merged cluster
// over term b: higher DF first, then lexicographically smaller.
func aggMoreGeneral(df []int, uniq []string, a, b int) bool {
	if df[a] != df[b] {
		return df[a] > df[b]
	}
	return uniq[a] < uniq[b]
}

// countGreater counts the neighbor slots in row strictly above i — the
// unordered pairs row i contributes to the candidate tally.
func countGreater(row map[int32]float64, i int32) int64 {
	var c int64
	for j := range row {
		if j > i {
			c++
		}
	}
	return c
}
