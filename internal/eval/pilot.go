package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hierarchy"
	"repro/internal/mturk"
	"repro/internal/ontology"
	"repro/internal/textdb"
)

// PilotResult reproduces Table I: the facets identified by human
// annotators in the pilot study, grouped as top-level facets with
// prominent sub-facets, plus the fraction of annotator facet terms that
// never occur in their stories (the paper's 65% observation).
type PilotResult struct {
	Facets      []PilotFacet
	MissingRate float64 // fraction of validated facet terms absent from the story text
	NumStories  int
}

// PilotFacet is one row of Table I.
type PilotFacet struct {
	Name      string
	SubFacets []string
	Count     int // stories annotated with the facet (or a descendant)
}

// PilotStudy simulates the Section III pilot: annotators tag a story
// sample, validated terms are mapped to their facet roots, and the most
// common roots (with their most common sub-facets) are reported.
func PilotStudy(dr *DataRun, sampleSize int, topFacets, topSubs int) *PilotResult {
	if sampleSize == 0 {
		sampleSize = 1000
	}
	if topFacets == 0 {
		topFacets = 9
	}
	if topSubs == 0 {
		topSubs = 2
	}
	idx := dr.SampleIndices(sampleSize)
	gt := dr.Pool.BuildGroundTruth(dr.DS, idx)

	kb := dr.Lab.KB
	rootCount := map[ontology.ConceptID]int{}
	subCount := map[ontology.ConceptID]map[ontology.ConceptID]int{}
	var missing, total int
	for gi, storyIdx := range idx {
		text := strings.ToLower(dr.DS.Corpus.Doc(textdb.DocID(storyIdx)).Title + " " + dr.DS.Corpus.Doc(textdb.DocID(storyIdx)).Text)
		seenRoot := map[ontology.ConceptID]bool{}
		for _, term := range gt.Stories[gi] {
			total++
			if !strings.Contains(text, term) {
				missing++
			}
			c, ok := kb.ByName(term)
			if !ok {
				continue
			}
			root := kb.Root(c.ID)
			if root == ontology.None {
				continue
			}
			if !seenRoot[root] {
				seenRoot[root] = true
				rootCount[root]++
			}
			// Sub-facet: the nearest ancestor (or the concept itself)
			// sitting directly under the root.
			if c.ID != root {
				sub := nearestChildOfRoot(kb, c.ID, root)
				if sub != ontology.None {
					if subCount[root] == nil {
						subCount[root] = map[ontology.ConceptID]int{}
					}
					subCount[root][sub]++
				}
			}
		}
	}
	type rc struct {
		id ontology.ConceptID
		n  int
	}
	var roots []rc
	for id, n := range rootCount {
		roots = append(roots, rc{id, n})
	}
	sort.Slice(roots, func(a, b int) bool {
		if roots[a].n != roots[b].n {
			return roots[a].n > roots[b].n
		}
		return roots[a].id < roots[b].id
	})
	if len(roots) > topFacets {
		roots = roots[:topFacets]
	}
	res := &PilotResult{NumStories: len(idx)}
	if total > 0 {
		res.MissingRate = float64(missing) / float64(total)
	}
	for _, r := range roots {
		pf := PilotFacet{Name: kb.Concept(r.id).Display, Count: r.n}
		var subs []rc
		for id, n := range subCount[r.id] {
			subs = append(subs, rc{id, n})
		}
		sort.Slice(subs, func(a, b int) bool {
			if subs[a].n != subs[b].n {
				return subs[a].n > subs[b].n
			}
			return subs[a].id < subs[b].id
		})
		for i := 0; i < topSubs && i < len(subs); i++ {
			pf.SubFacets = append(pf.SubFacets, kb.Concept(subs[i].id).Display)
		}
		res.Facets = append(res.Facets, pf)
	}
	return res
}

// nearestChildOfRoot returns the facet ancestor of id (or id itself) that
// sits directly under root.
func nearestChildOfRoot(kb *ontology.KB, id, root ontology.ConceptID) ontology.ConceptID {
	check := func(c ontology.ConceptID) bool {
		for _, p := range kb.Concept(c).Parents {
			if p == root {
				return true
			}
		}
		return false
	}
	if check(id) {
		return id
	}
	for _, a := range kb.FacetAncestors(id) {
		if check(a) {
			return a
		}
	}
	return ontology.None
}

// Format renders the pilot result like Table I.
func (r *PilotResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Facets identified by annotators over %d stories (facet terms missing from text: %.0f%%)\n", r.NumStories, r.MissingRate*100)
	sb.WriteString("Facets\n------\n")
	for _, f := range r.Facets {
		fmt.Fprintf(&sb, "%s  (%d stories)\n", f.Name, f.Count)
		for _, s := range f.SubFacets {
			fmt.Fprintf(&sb, "  -> %s\n", s)
		}
	}
	return sb.String()
}

// Figure4 reproduces the paper's Figure 4: the most frequent facet terms
// selected by at least two annotators, across the ground-truth sample.
func Figure4(gt *mturk.GroundTruth, topN int) []string {
	if topN == 0 {
		topN = 80
	}
	counts := map[string]int{}
	for _, story := range gt.Stories {
		for _, t := range story {
			counts[t]++
		}
	}
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(a, b int) bool {
		if counts[terms[a]] != counts[terms[b]] {
			return counts[terms[a]] > counts[terms[b]]
		}
		return terms[a] < terms[b]
	})
	if len(terms) > topN {
		terms = terms[:topN]
	}
	return terms
}

// Figure5 reproduces the paper's Figure 5: the terms a plain
// subsumption-based algorithm surfaces WITHOUT document expansion — the
// generic high-frequency vocabulary of the collection, demonstrating why
// expansion is necessary.
func Figure5(dr *DataRun, topN int) ([]string, *hierarchy.Forest, error) {
	if topN == 0 {
		topN = 25
	}
	corpus := dr.DS.Corpus
	// Document frequencies over the original database only.
	table := textdb.NewDFTable(corpus.Dict())
	for i := 0; i < corpus.Len(); i++ {
		table.AddDoc(corpus.DocTerms(textdb.DocID(i)))
	}
	minDF := corpus.Len() / 100
	if minDF < 2 {
		minDF = 2
	}
	top := table.TopTerms(topN, minDF)
	terms := make([]string, len(top))
	for i, id := range top {
		terms[i] = corpus.Dict().String(id)
	}
	docTerms := make([][]string, corpus.Len())
	termSet := map[string]bool{}
	for _, t := range terms {
		termSet[t] = true
	}
	for d := 0; d < corpus.Len(); d++ {
		for _, id := range corpus.DocTerms(textdb.DocID(d)) {
			if s := corpus.Dict().String(id); termSet[s] {
				docTerms[d] = append(docTerms[d], s)
			}
		}
	}
	b, _ := hierarchy.Lookup("subsumption") // registered by package hierarchy itself
	forest, err := b.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{})
	if err != nil {
		return nil, nil, err
	}
	return terms, forest, nil
}
