package hierarchy

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// The dense all-pairs sweeps the builders ran before pair pruning. They
// are the references the differential tests (TestPrunedSweepEquivalence,
// TestAgglomerativeDegeneratePostings, TestBuilderInvariants) compare the
// pruned sweeps against.

// denseBuild builds with the named builder's dense reference sweep. A
// builder with a pairwise sweep and no reference here fails the tests,
// so a new strategy cannot ship a pruning shortcut unchecked.
func denseBuild(ctx context.Context, name string, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	switch name {
	case "subsumption":
		return subsumptionDense(ctx, terms, docTerms, cfg)
	case "evidence":
		return buildEvidence(ctx, terms, docTerms, cfg, true)
	case "agglomerative":
		return agglomerativeDense(ctx, terms, docTerms, cfg)
	case "treemin": // no pairwise sweep: the build is its own reference
		return treeminBuilder{}.Build(ctx, terms, docTerms, cfg)
	}
	return nil, fmt.Errorf("no dense reference for builder %q", name)
}

// subsumptionDense is the subsumption builder with its all-pairs sweep:
// every term y tests every more general term x with a bitset
// intersection.
func subsumptionDense(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
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
	uniq, sets, df, alive, nDocs := st.uniq, st.sets, st.df, st.alive, st.nDocs
	parents := make([]int, len(alive))
	maxChildDF := int(cfg.MaxChildDFFraction * float64(nDocs))
	err := parallel.For(ctx, len(alive), cfg.Workers, func(_, yi int) {
		parents[yi] = -1
		y := alive[yi]
		if df[y] == 0 || (nDocs > 0 && df[y] > maxChildDF) {
			return
		}
		var best parentCand
		have := false
		for _, x := range alive {
			if x == y || df[x] <= df[y] {
				continue
			}
			co := sets[x].AndCount(sets[y])
			pxy := float64(co) / float64(df[y])
			pyx := float64(co) / float64(df[x])
			if pxy < cfg.Threshold || pyx >= 1 {
				continue
			}
			cand := parentCand{idx: x, pxy: pxy, dfx: df[x], term: uniq[x]}
			if !have || moreSpecific(&cand, &best) {
				best, have = cand, true
			}
		}
		if have {
			parents[yi] = best.idx
		}
	})
	if err != nil {
		return nil, err
	}
	parentOf := make(map[int]int)
	for yi, y := range alive {
		if parents[yi] >= 0 {
			parentOf[y] = parents[yi]
		}
	}
	return assembleForest(st, parentOf), nil
}

// agglomerativeDense is the agglomerative builder with aggBuildDense in
// place of aggBuildSparse.
func agglomerativeDense(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
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
	return aggBuildDense(ctx, newTermStats(terms, docTerms, cfg.MinDF), minSim, cfg)
}

// aggBuildDense is the agglomerative builder's pre-pruning all-pairs
// reference, kept verbatim (plus the degenerate-postings guard) so the
// differential tests can prove aggBuildSparse byte-identical.
func aggBuildDense(ctx context.Context, st *termStats, minSim float64, cfg BuildConfig) (*Forest, error) {
	uniq, sets, df, alive := st.uniq, st.sets, st.df, st.alive
	n := len(alive)

	// Pairwise Jaccard similarity over the alive terms. Row i is written
	// only by the worker that owns it, so the O(n²) AndCount sweep shards
	// like the subsumption sweep.
	sim := make([]float64, n*n)
	err := parallel.For(ctx, n, cfg.Workers, func(_, i int) {
		a := alive[i]
		for j := i + 1; j < n; j++ {
			b := alive[j]
			co := sets[a].AndCount(sets[b])
			if co == 0 {
				continue
			}
			union := df[a] + df[b] - co
			sim[i*n+j] = float64(co) / float64(union)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sim[j*n+i] = sim[i*n+j]
		}
	}

	// Each cluster tracks its size (for the average-linkage update) and
	// its name: the global index of the highest-DF member.
	active := make([]bool, n)
	size := make([]int, n)
	name := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		name[i] = alive[i]
	}

	parentOf := make(map[int]int)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Closest active pair; ties resolve by the lexicographically
		// smallest (name_i, name_j) pair, which is scan order here since
		// clusters keep their creation slots and alive is sorted.
		bestI, bestJ, bestSim := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if s := sim[i*n+j]; s > bestSim {
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
		// Lance–Williams average-linkage update into slot bestI.
		for k := 0; k < n; k++ {
			if !active[k] || k == bestI || k == bestJ {
				continue
			}
			merged := (float64(size[bestI])*sim[bestI*n+k] + float64(size[bestJ])*sim[bestJ*n+k]) /
				float64(size[bestI]+size[bestJ])
			sim[bestI*n+k] = merged
			sim[k*n+bestI] = merged
		}
		size[bestI] += size[bestJ]
		name[bestI] = winner
		active[bestJ] = false
	}
	return assembleForest(st, parentOf), nil
}
