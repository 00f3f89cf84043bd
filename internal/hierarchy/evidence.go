package hierarchy

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// TaxonomicEvidence scores the hypothesis "parent is-a-broader-term-of
// child" from one knowledge source, in [0, 1]. This is the extension the
// paper points at ("newer algorithms [5] may give even better results",
// citing Snow, Jurafsky & Ng 2006): instead of relying on document
// co-occurrence alone, evidence from heterogeneous sources is combined.
type TaxonomicEvidence interface {
	Name() string
	Score(parent, child string) float64
}

// EvidenceFunc adapts a function to TaxonomicEvidence.
type EvidenceFunc struct {
	EvidenceName string
	Fn           func(parent, child string) float64
}

// Name implements TaxonomicEvidence.
func (e EvidenceFunc) Name() string { return e.EvidenceName }

// Score implements TaxonomicEvidence.
func (e EvidenceFunc) Score(parent, child string) float64 { return e.Fn(parent, child) }

// evidenceBuilder is the registered "evidence" strategy. It builds a
// forest like the subsumption builder but chooses each term's parent by
// the maximum combined evidence score. A candidate must still satisfy
// P(y|x) < 1 (directionality) and reach the threshold. ctx is checked
// between terms of the sharded pairwise evidence sweep, and a canceled
// build returns ctx's error instead of a partial forest.
type evidenceBuilder struct{}

// Name implements Builder.
func (evidenceBuilder) Name() string { return "evidence" }

// Build implements Builder.
func (evidenceBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	return buildEvidence(ctx, terms, docTerms, cfg, false)
}

// buildEvidence is Build. forceDense makes the sweep visit every pair
// even where the threshold lets it skip the pairs that never co-occur;
// the differential tests set it to compare the two sweeps.
func buildEvidence(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig, forceDense bool) (*Forest, error) {
	opts := cfg.Evidence
	if opts.SubsumptionWeight == 0 {
		opts.SubsumptionWeight = 1.0
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = cfg.Threshold
	}
	if threshold == 0 {
		threshold = 0.8
	}
	if err := checkThreshold(threshold); err != nil {
		return nil, err
	}
	if cfg.MinDF == 0 {
		cfg.MinDF = 2
	}
	if opts.Weights != nil && len(opts.Weights) != len(opts.Sources) {
		return nil, fmt.Errorf("hierarchy: %d weights for %d sources", len(opts.Weights), len(opts.Sources))
	}
	weight := func(i int) float64 {
		if opts.Weights == nil {
			return 1
		}
		return opts.Weights[i]
	}
	totalWeight := opts.SubsumptionWeight
	for i := range opts.Sources {
		totalWeight += weight(i)
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("hierarchy: non-positive total evidence weight")
	}

	st := newTermStats(terms, docTerms, cfg.MinDF)
	uniq, sets, df, alive := st.uniq, st.sets, st.df, st.alive

	// Pruning gate. A pair with empty posting-list intersection scores
	// at most maxZeroCoScore — the external sources' full endorsement
	// with zero co-occurrence evidence — so when the attachment
	// threshold exceeds that ceiling, zero-co pairs can neither reach
	// the threshold nor displace a candidate that does, and the sweep
	// can run over the pairIndex candidates alone. When the threshold
	// sits at or below the ceiling, taxonomy evidence alone can attach
	// terms that never co-occur and the sweep must stay dense for
	// correctness.
	maxZeroCoScore := 0.0
	for i := range opts.Sources {
		if w := weight(i); w > 0 {
			maxZeroCoScore += w
		}
	}
	maxZeroCoScore /= totalWeight
	pruned := !forceDense && threshold > maxZeroCoScore

	// As in the subsumption builder, every term's best parent is computed
	// independently, so the pairwise evidence combination shards across
	// workers into per-term slots merged deterministically afterwards.
	// The best-candidate tie-break (max score, then lexicographically
	// smallest term) is a total order, so the pruned sweep's different
	// visit order cannot change the winner.
	parents := make([]int, len(alive))
	var ix *pairIndex
	var scratches []*pairScratch
	var counts []pairCounts
	if pruned {
		ix = newPairIndex(st)
		nw := sweepWorkers(cfg.Workers)
		scratches = make([]*pairScratch, nw)
		counts = make([]pairCounts, nw)
	}
	err := parallel.For(ctx, len(alive), cfg.Workers, func(w, yi int) {
		y := alive[yi]
		bestScore := 0.0
		bestIdx := -1
		consider := func(x, co int) {
			pyx := float64(co) / float64(df[x])
			if pyx >= 1 {
				return
			}
			score := opts.SubsumptionWeight * float64(co) / float64(df[y])
			for i, src := range opts.Sources {
				score += weight(i) * clamp01(src.Score(uniq[x], uniq[y]))
			}
			score /= totalWeight
			if score > bestScore || (score == bestScore && bestIdx >= 0 && uniq[x] < uniq[bestIdx]) {
				bestScore = score
				bestIdx = x
			}
		}
		if pruned {
			sc := scratches[w]
			if sc == nil {
				sc = ix.newScratch()
				scratches[w] = sc
			}
			yielded := int64(0)
			ix.forCandidates(yi, sc, 1, func(xi, co int) {
				yielded++
				consider(alive[xi], co)
			})
			counts[w].candidate += yielded
			counts[w].evaluated += yielded
			counts[w].skipped += int64(len(alive)-1) - yielded
		} else {
			for _, x := range alive {
				if x == y {
					continue
				}
				consider(x, sets[x].AndCount(sets[y]))
			}
		}
		parents[yi] = -1
		if bestIdx >= 0 && bestScore >= threshold {
			parents[yi] = bestIdx
		}
	})
	if err != nil {
		return nil, err
	}
	if pruned {
		publishPairCounts(cfg.Metrics, counts, len(alive))
	}
	parentOf := map[int]int{}
	for yi, y := range alive {
		if parents[yi] >= 0 {
			parentOf[y] = parents[yi]
		}
	}
	return assembleForest(st, parentOf), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
