package hierarchy

import (
	"repro/internal/wiki"
	"repro/internal/wordnet"
)

// Taxonomy wires WordNet and Wikipedia into the taxonomy-backed builders,
// the one configuration the facade and the experiments share. The
// evidence options combine two membership tests, weighted 0.5 each with a
// 0.6 combined threshold, for the "evidence" builder: the parent is one
// of the child's WordNet hypernyms up to depth 6, and the child's
// Wikipedia page links to the parent's. The chain provider gives each
// term's WordNet hypernym chain up to depth 8 for "treemin". Both only
// read the two databases, so they are safe for concurrent use.
func Taxonomy(wn *wordnet.DB, w *wiki.Wiki) (EvidenceOptions, ChainProvider) {
	wnEvidence := EvidenceFunc{
		EvidenceName: "wordnet-hypernym",
		Fn: func(parent, child string) float64 {
			lemma, ok := wn.Morphy(child)
			if !ok {
				return 0
			}
			for _, h := range wn.Hypernyms(lemma, 6) {
				if h == parent {
					return 1
				}
			}
			return 0
		},
	}
	wikiEvidence := EvidenceFunc{
		EvidenceName: "wikipedia-link",
		Fn: func(parent, child string) float64 {
			cp, ok := w.Resolve(child)
			if !ok {
				return 0
			}
			pp, ok := w.Resolve(parent)
			if !ok {
				return 0
			}
			for _, l := range cp.Links {
				if l.Target == pp.ID {
					return 1
				}
			}
			return 0
		},
	}
	chains := ChainFunc(func(term string) []string {
		lemma, ok := wn.Morphy(term)
		if !ok {
			return nil
		}
		return wn.Hypernyms(lemma, 8)
	})
	return EvidenceOptions{
		Sources:   []TaxonomicEvidence{wnEvidence, wikiEvidence},
		Weights:   []float64{0.5, 0.5},
		Threshold: 0.6,
	}, chains
}
