package websearch

import (
	"sort"
	"strings"

	"repro/internal/lang"
)

// referenceContext is Resource.Context as first written: it searches
// through Engine.Search, re-tokenizes every returned title and snippet,
// counts words and bigrams as strings, sorts every counted term, and
// only then drops low-support and boilerplate terms. The differential
// tests and FuzzGoogleContext hold the precomputed implementation to its
// answers. It charges no clock.
func referenceContext(r *Resource, term string) []string {
	results := r.engine.Search(term, r.kResults)
	if len(results) == 0 {
		return nil
	}
	queryWords := map[string]bool{}
	for _, w := range strings.Fields(lang.NormalizePhrase(term)) {
		queryWords[w] = true
	}
	freq := map[string]int{}
	var order []string
	count := func(text string) {
		for _, sent := range lang.Phrases(lang.Tokenize(text)) {
			words := lang.Norms(sent)
			for i, w := range words {
				if len(w) > 1 && !lang.IsStopword(w) && !queryWords[w] {
					if freq[w] == 0 {
						order = append(order, w)
					}
					freq[w]++
				}
				if i+2 <= len(words) {
					a, b := words[i], words[i+1]
					if lang.IsStopword(a) || lang.IsStopword(b) || queryWords[a] || queryWords[b] {
						continue
					}
					p := a + " " + b
					if freq[p] == 0 {
						order = append(order, p)
					}
					freq[p]++
				}
			}
		}
	}
	for _, res := range results {
		count(res.Title)
		count(res.Snippet)
	}
	sort.SliceStable(order, func(a, b int) bool {
		if freq[order[a]] != freq[order[b]] {
			return freq[order[a]] > freq[order[b]]
		}
		return order[a] < order[b]
	})
	var out []string
	for _, t := range order {
		if freq[t] < 3 {
			continue
		}
		if r.engine.DocFreqFraction(t) > maxBackgroundDF {
			continue
		}
		out = append(out, t)
		if len(out) >= r.mTerms {
			break
		}
	}
	return out
}
