package wiki

import (
	"sort"
	"strings"

	"repro/internal/lang"
)

// The reference implementations below are the map-scanning accessors
// and the position-by-position title extractor as first written. The
// differential tests and FuzzTitleExtract hold the precomputed lookups
// to their answers.

// referenceRedirectGroup scans the whole redirect table for the page.
func referenceRedirectGroup(w *Wiki, id PageID) []string {
	var out []string
	for v, pid := range w.redirects {
		if pid == id {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// referenceAnchorTF rebuilds the anchor table from the pages' links the
// way Build counts them: anchorTF[anchor][page] links use the anchor for
// the page.
func referenceAnchorTF(w *Wiki) map[string]map[PageID]int {
	anchorTF := map[string]map[PageID]int{}
	for _, p := range w.pages {
		for _, l := range p.Links {
			na := lang.NormalizePhrase(l.Anchor)
			if anchorTF[na] == nil {
				anchorTF[na] = map[PageID]int{}
			}
			anchorTF[na][l.Target]++
		}
	}
	return anchorTF
}

// referenceAnchorsFor scans the whole anchor table for the page.
func referenceAnchorsFor(anchorTF map[string]map[PageID]int, id PageID) []ScoredTerm {
	var out []ScoredTerm
	for anchor, tfs := range anchorTF {
		tf, ok := tfs[id]
		if !ok {
			continue
		}
		out = append(out, ScoredTerm{Term: anchor, Score: float64(tf) / float64(len(tfs))})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Term < out[b].Term
	})
	return out
}

// referenceExtract joins and resolves (re-normalizing) every span of up
// to six words at every position. The original bounded spans by the
// longest title too, which only skipped spans no title can match.
func referenceExtract(w *Wiki, text string) []string {
	tokens := lang.Tokenize(text)
	words := lang.Norms(tokens)
	maxN := 6
	var out []string
	seen := map[string]bool{}
	i := 0
	for i < len(words) {
		matched := 0
		for n := min(maxN, len(words)-i); n >= 1; n-- {
			span := strings.Join(words[i:i+n], " ")
			if _, ok := w.Resolve(span); ok {
				if !seen[span] {
					seen[span] = true
					out = append(out, span)
				}
				matched = n
				break
			}
		}
		if matched > 0 {
			i += matched
			continue
		}
		i++
	}
	return out
}
