package eval

import (
	"repro/internal/hierarchy"
	"repro/internal/mturk"
)

// ForestScore is the ground-truth quality profile of one built hierarchy.
// Unlike JudgePrecision (which simulates noisy human judges, as the
// paper's Section V-C does), the numbers ScoreForest computes come
// straight from the knowledge base the corpus was generated from, so they
// are exact and comparable across builders.
type ForestScore struct {
	Builder string

	// Shape.
	Nodes     int     // terms placed in the forest
	Roots     int     // top-level trees
	MaxDepth  int     // deepest node (roots are depth 0)
	MeanDepth float64 // average node depth
	Branching float64 // mean children per internal node

	// Quality against the ground-truth ontology.
	// Precision: of the attached (non-root) nodes, the fraction whose
	// parent is KB-consistent (mturk.Pool.PlacedOK).
	Precision float64
	// Recall: of the ground-truth ancestor pairs among the input terms
	// (mturk.Pool.FacetAncestor), the fraction realized as ancestor
	// relations in the forest.
	Recall float64
	// OrphanRate: input terms that ended up unplaced — absent from the
	// forest or parked as childless roots — over all distinct input terms.
	OrphanRate float64

	// Judged is the simulated annotators' precision
	// (mturk.Pool.JudgePrecision), the metric of the paper's Tables V–VII;
	// filled in by the bake-off.
	Judged float64

	// Millis is the builder's wall-clock, filled in by the bake-off.
	Millis float64
}

// ScoreForest profiles a built forest against the pool's ground truth.
// inputTerms is the term vocabulary the builder was asked to organize
// (used for recall and orphan accounting; duplicates are ignored).
func ScoreForest(pool *mturk.Pool, forest *hierarchy.Forest, inputTerms []string) ForestScore {
	var sc ForestScore

	// Shape + placement precision in one walk.
	var depthSum, internal, childSum, attached, wellPlaced int
	forest.Walk(func(n *hierarchy.Node, d int) {
		sc.Nodes++
		depthSum += d
		if d > sc.MaxDepth {
			sc.MaxDepth = d
		}
		if len(n.Children) > 0 {
			internal++
			childSum += len(n.Children)
		}
		if n.Parent != nil {
			attached++
			if pool.PlacedOK(n) {
				wellPlaced++
			}
		}
	})
	sc.Roots = len(forest.Roots)
	if sc.Nodes > 0 {
		sc.MeanDepth = float64(depthSum) / float64(sc.Nodes)
	}
	if internal > 0 {
		sc.Branching = float64(childSum) / float64(internal)
	}
	if attached > 0 {
		sc.Precision = float64(wellPlaced) / float64(attached)
	}

	uniq := make([]string, 0, len(inputTerms))
	seen := map[string]bool{}
	for _, t := range inputTerms {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}

	// Orphans: an input term contributes nothing to browsing when the
	// forest dropped it or left it as a childless root.
	if len(uniq) > 0 {
		orphans := 0
		for _, t := range uniq {
			n, ok := forest.Find(t)
			if !ok || (n.Parent == nil && len(n.Children) == 0) {
				orphans++
			}
		}
		sc.OrphanRate = float64(orphans) / float64(len(uniq))
	}

	// Recall over ground-truth ancestor pairs among the input terms.
	gt, recovered := 0, 0
	for _, anc := range uniq {
		for _, desc := range uniq {
			if anc == desc || !pool.FacetAncestor(anc, desc) {
				continue
			}
			gt++
			a, okA := forest.Find(anc)
			d, okD := forest.Find(desc)
			if !okA || !okD {
				continue
			}
			for cur := d.Parent; cur != nil; cur = cur.Parent {
				if cur == a {
					recovered++
					break
				}
			}
		}
	}
	if gt > 0 {
		sc.Recall = float64(recovered) / float64(gt)
	}
	return sc
}
