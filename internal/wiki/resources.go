package wiki

import (
	"math"
	"sort"
	"strings"

	"repro/internal/lang"
)

// TitleExtractor identifies important document terms by matching text
// spans against Wikipedia page titles and redirects, picking the longest
// title when several candidates overlap (Section IV-A of the paper).
type TitleExtractor struct {
	w *Wiki
}

// NewTitleExtractor returns the extractor over the given wiki.
func NewTitleExtractor(w *Wiki) *TitleExtractor {
	return &TitleExtractor{w: w}
}

// Name implements the core.Extractor convention.
func (e *TitleExtractor) Name() string { return "Wikipedia" }

// Extract returns the normalized important terms of the text: every
// maximal span that matches a page title or redirect. Matching is greedy
// left-to-right with longest-match-first, so "New York Stock Exchange"
// beats "New York" when both are titles. The SURFACE span is returned
// (not the canonical title): variant resolution is the job of the
// downstream resources, which all resolve through the same redirect
// table — and the Wikipedia Synonyms resource in particular exists to
// map surface variants to their canonical entry.
//
// Spans of token norms are looked up without lang.NormalizePhrase: a
// token starts and ends on a letter or digit and holds no whitespace, so
// its norm, and a space-joined run of norms, is already normalized. A
// position whose word starts no title or redirect is skipped, and the
// longest span tried is the longest title starting with that word.
func (e *TitleExtractor) Extract(text string) []string {
	words := lang.Norms(lang.Tokenize(text))
	var out []string
	seen := map[string]bool{}
	for i := 0; i < len(words); {
		// Try the longest span first; each shorter one is its prefix.
		n := min(e.w.titleStarts[words[i]], maxTitleSpan, len(words)-i)
		span := strings.Join(words[i:i+n], " ")
		for ; n > 0; n-- {
			if _, ok := e.w.resolveNorm(span); ok {
				if !seen[span] {
					seen[span] = true
					out = append(out, span)
				}
				break
			}
			if n > 1 {
				span = span[:len(span)-len(words[i+n-1])-1]
			}
		}
		// n is the matched span's length, 0 when none matched.
		i += max(n, 1)
	}
	return out
}

// maxTitleSpan bounds the words in a span the title extractor matches.
const maxTitleSpan = 6

// GraphResource derives context terms from the Wikipedia link graph: the
// entries linked from the queried entry, scored by the paper's
// association metric log(N/in(t2)) / out(t1), top k.
type GraphResource struct {
	w *Wiki
	k int
}

// NewGraphResource returns the resource; k <= 0 selects the paper's k=50.
func NewGraphResource(w *Wiki, k int) *GraphResource {
	if k <= 0 {
		k = 50
	}
	return &GraphResource{w: w, k: k}
}

// Name implements the core.Resource convention.
func (r *GraphResource) Name() string { return "Wikipedia Graph" }

// Context returns the top-k linked entries for the term, as normalized
// titles. Unknown terms return nil (the resource has nothing to say).
func (r *GraphResource) Context(term string) []string {
	page, ok := r.w.Resolve(term)
	if !ok {
		return nil
	}
	out1 := r.w.OutDegree(page.ID)
	if out1 == 0 {
		return nil
	}
	n := float64(r.w.Len())
	scored := make([]ScoredTerm, 0, len(page.Links))
	seen := map[PageID]bool{}
	for _, link := range page.Links {
		if seen[link.Target] {
			continue
		}
		seen[link.Target] = true
		in2 := r.w.InDegree(link.Target)
		if in2 == 0 {
			in2 = 1
		}
		score := math.Log(n/float64(in2)) / float64(out1)
		scored = append(scored, ScoredTerm{
			Term:  r.w.normTitle[link.Target],
			Score: score,
		})
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].Term < scored[b].Term
	})
	if len(scored) > r.k {
		scored = scored[:r.k]
	}
	out := make([]string, len(scored))
	for i, s := range scored {
		out[i] = s.Term
	}
	return out
}

// SynonymResource returns variations of a term: the redirect group of its
// page plus anchor texts passing the s(p,t) = tf(p,t)/f(p) threshold
// (Section IV-B, "Wikipedia Synonyms").
type SynonymResource struct {
	w *Wiki
	// minAnchorScore filters noisy anchors; the paper notes anchors are
	// "inherently noisier than redirects" and ranks them by s(p,t).
	minAnchorScore float64
}

// NewSynonymResource returns the resource with the default anchor
// threshold.
func NewSynonymResource(w *Wiki) *SynonymResource {
	return &SynonymResource{w: w, minAnchorScore: 0.5}
}

// Name implements the core.Resource convention.
func (r *SynonymResource) Name() string { return "Wikipedia Synonyms" }

// Context returns the synonyms of the term: canonical title, redirect
// variants, and high-scoring anchors, excluding the query form itself.
func (r *SynonymResource) Context(term string) []string {
	query := lang.NormalizePhrase(term)
	page, ok := r.w.resolveNorm(query)
	if !ok {
		return nil
	}
	var out []string
	seen := map[string]bool{query: true}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	add(r.w.normTitle[page.ID])
	for _, v := range r.w.redirectGroup[page.ID] {
		add(v)
	}
	for _, a := range r.w.anchors[page.ID] {
		if a.Score >= r.minAnchorScore {
			add(a.Term)
		}
	}
	return out
}
