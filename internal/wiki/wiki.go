// Package wiki implements the synthetic Wikipedia substrate: a page per
// ontology concept, redirect pages for name variants, anchor-text
// statistics, and the inter-page link graph. On top of it live the three
// Wikipedia-based tools of the paper:
//
//   - TitleExtractor (Section IV-A, "Wikipedia Terms"): marks document
//     terms important when they match a page title or redirect, preferring
//     the longest title.
//   - GraphResource (Section IV-B, "Wikipedia Graph"): returns linked
//     entries scored log(N/in(t2))/out(t1), top k=50.
//   - SynonymResource (Section IV-B, "Wikipedia Synonyms"): returns name
//     variants from redirects plus anchor texts scored tf(p,t)/f(p).
//
// The page graph is generated from the ontology so it has the same shape
// as the real one at reduced scale: entity pages link "up" to general
// facet entries and "sideways" to related entities, producing a graph
// where general entries accumulate high in-degree — the property that the
// association scoring and, downstream, the comparative frequency analysis
// rely on.
package wiki

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lang"
	"repro/internal/ontology"
	"repro/internal/xrand"
)

// PageID indexes a page within the Wiki.
type PageID int32

// Link is a directed edge from one page to another with its anchor text.
type Link struct {
	Target PageID
	Anchor string // surface form used in the source page
}

// Page is one Wikipedia entry.
type Page struct {
	ID      PageID
	Title   string // display-form title
	Concept ontology.ConceptID
	Text    string
	Links   []Link
}

// Wiki is the assembled encyclopedia.
type Wiki struct {
	kb    *ontology.KB
	pages []*Page

	byTitle   map[string]PageID // normalized canonical title → page
	redirects map[string]PageID // normalized variant title → page

	inDeg  []int
	outDeg []int

	// Per-page answers derived once at Build, so a lookup costs in
	// proportion to its answer rather than to the tables: normTitle[id]
	// is the page's normalized title, redirectGroup[id] its RedirectGroup
	// and anchors[id] its AnchorsFor. titleStarts maps the first word of
	// every registered title and redirect to the most words any of those
	// starting with it has.
	normTitle     []string
	redirectGroup [][]string
	anchors       [][]ScoredTerm
	titleStarts   map[string]int
}

// Config controls wiki generation.
type Config struct {
	Seed uint64
	// VariantAnchorProb is the probability that a link uses a name variant
	// rather than the canonical title as anchor text.
	VariantAnchorProb float64
	// MaxFacetChildLinks bounds how many child links a facet page gets.
	MaxFacetChildLinks int
}

func (c *Config) defaults() {
	if c.VariantAnchorProb == 0 {
		c.VariantAnchorProb = 0.25
	}
	if c.MaxFacetChildLinks == 0 {
		c.MaxFacetChildLinks = 12
	}
}

// Build generates the wiki from the knowledge base.
func Build(kb *ontology.KB, cfg Config) (*Wiki, error) {
	cfg.defaults()
	w := &Wiki{
		kb:        kb,
		byTitle:   make(map[string]PageID, kb.Len()),
		redirects: make(map[string]PageID),
	}
	rng := xrand.New(cfg.Seed).Sub("wiki")

	// Pass 1: create a page per concept and register titles/redirects.
	for i := 0; i < kb.Len(); i++ {
		c := kb.Concept(ontology.ConceptID(i))
		p := &Page{ID: PageID(len(w.pages)), Title: c.Display, Concept: c.ID}
		w.pages = append(w.pages, p)
		norm := lang.NormalizePhrase(c.Display)
		w.normTitle = append(w.normTitle, norm)
		if _, taken := w.byTitle[norm]; !taken {
			w.byTitle[norm] = p.ID
		}
		for _, v := range c.Variants {
			nv := lang.NormalizePhrase(v)
			if nv == norm {
				continue
			}
			if _, taken := w.byTitle[nv]; taken {
				continue
			}
			if _, taken := w.redirects[nv]; !taken {
				w.redirects[nv] = p.ID
			}
		}
	}

	w.titleStarts = make(map[string]int)
	for _, table := range []map[string]PageID{w.byTitle, w.redirects} {
		for title := range table {
			words := strings.Fields(title)
			if len(words) > 0 && len(words) > w.titleStarts[words[0]] {
				w.titleStarts[words[0]] = len(words)
			}
		}
	}
	w.redirectGroup = make([][]string, len(w.pages))
	for v, id := range w.redirects {
		w.redirectGroup[id] = append(w.redirectGroup[id], v)
	}
	for _, group := range w.redirectGroup {
		sort.Strings(group)
	}

	// Pass 2: wire links and generate text. anchorTF[anchor][page] is
	// the number of links using this anchor text for this target page;
	// len(anchorTF[anchor]) is the number of distinct target pages the
	// anchor points to (the f(p) of the paper's s(p,t) score).
	anchorTF := make(map[string]map[PageID]int)
	w.inDeg = make([]int, len(w.pages))
	w.outDeg = make([]int, len(w.pages))
	for _, p := range w.pages {
		prng := rng.SubInt("page", int(p.ID))
		c := kb.Concept(p.Concept)
		var targets []ontology.ConceptID
		targets = append(targets, c.Parents...)
		// Transitive facet ancestors beyond the immediate parents are
		// linked with lower probability (a politician's page mentions
		// "Europe" less reliably than "France").
		for _, a := range kb.FacetAncestors(p.Concept) {
			if containsID(c.Parents, a) {
				continue
			}
			if prng.Bool(0.45) {
				targets = append(targets, a)
			}
		}
		targets = append(targets, c.Related...)
		// Facet pages link to a sample of sibling facets under the same
		// root, mimicking category cross-links.
		if c.IsFacet() && len(targets) < cfg.MaxFacetChildLinks {
			root := kb.Root(c.ID)
			if root != ontology.None && root != c.ID && prng.Bool(0.5) {
				targets = append(targets, root)
			}
		}
		seen := map[ontology.ConceptID]bool{p.Concept: true}
		for _, tgt := range targets {
			if seen[tgt] {
				continue
			}
			seen[tgt] = true
			tp := w.pages[int(tgt)] // page IDs mirror concept IDs
			anchor := tp.Title
			tc := kb.Concept(tgt)
			if len(tc.Variants) > 0 && prng.Bool(cfg.VariantAnchorProb) {
				anchor = xrand.Pick(prng, tc.Variants)
			}
			p.Links = append(p.Links, Link{Target: tp.ID, Anchor: anchor})
			w.outDeg[p.ID]++
			w.inDeg[tp.ID]++
			na := lang.NormalizePhrase(anchor)
			if anchorTF[na] == nil {
				anchorTF[na] = map[PageID]int{}
			}
			anchorTF[na][tp.ID]++
		}
		p.Text = w.generateText(prng, c)
	}
	w.anchors = make([][]ScoredTerm, len(w.pages))
	for anchor, tfs := range anchorTF {
		for id, tf := range tfs {
			w.anchors[id] = append(w.anchors[id], ScoredTerm{Term: anchor, Score: float64(tf) / float64(len(tfs))})
		}
	}
	for _, list := range w.anchors {
		sort.Slice(list, func(a, b int) bool {
			if list[a].Score != list[b].Score {
				return list[a].Score > list[b].Score
			}
			return list[a].Term < list[b].Term
		})
	}
	if len(w.pages) == 0 {
		return nil, fmt.Errorf("wiki: empty knowledge base")
	}
	return w, nil
}

func containsID(ids []ontology.ConceptID, id ontology.ConceptID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// generateText writes a short encyclopedic article: the concept name, its
// facet ancestry (the "context terms" a human reads off the page), its
// topical vocabulary, and the names of related concepts.
func (w *Wiki) generateText(rng *xrand.RNG, c *ontology.Concept) string {
	var sb strings.Builder
	sb.WriteString(c.Display)
	switch {
	case c.Kind == ontology.KindEntity:
		sb.WriteString(" is ")
	default:
		sb.WriteString(" concerns ")
	}
	anc := w.kb.FacetAncestors(c.ID)
	for i, a := range anc {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(w.kb.Concept(a).Display)
	}
	if len(anc) == 0 {
		sb.WriteString("a general subject")
	}
	sb.WriteString(". ")
	// The page's topical vocabulary: the concept's own words plus a small
	// sample of ancestor vocabulary. Keeping the ancestor share small
	// matters: ancestor words are shared across whole subtrees, and pages
	// that all carry them would make those words look query-relevant to
	// the snippet-mining resource for every query in the subtree.
	words := append([]string{}, c.Words...)
	var ancWords []string
	for _, a := range anc {
		ancWords = append(ancWords, w.kb.Concept(a).Words...)
	}
	if len(ancWords) > 0 {
		words = append(words, xrand.PickN(rng, ancWords, 3)...)
	}
	if len(words) > 0 {
		// Topic vocabulary as a comma-separated list: commas are phrase
		// boundaries, so adjacent list entries never form spurious phrases
		// when snippets are mined downstream.
		sb.WriteString(xrand.Pick(rng, glueOpeners))
		n := min(len(words), 8+rng.Intn(5))
		picked := xrand.PickN(rng, words, n)
		sb.WriteString(strings.Join(picked, ", "))
		sb.WriteString(". ")
	}
	if len(c.Related) > 0 {
		sb.WriteString(xrand.Pick(rng, seeAlsoOpeners))
		for i, r := range c.Related {
			if i >= 4 {
				break
			}
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(w.kb.Concept(r).Display)
		}
		sb.WriteString(".")
	}
	return sb.String()
}

// glueOpeners and seeAlsoOpeners vary the boilerplate phrasing across
// pages. The small variant count is deliberate: each glue word then
// appears on a large fraction of all pages, so the web-search resource's
// background-frequency cut recognizes it as boilerplate.
var glueOpeners = []string{
	"The article mentions ",
	"The entry covers ",
	"The page refers to ",
	"The text addresses ",
}

var seeAlsoOpeners = []string{
	"See also ",
	"Compare with ",
}

// Len returns the number of pages.
func (w *Wiki) Len() int { return len(w.pages) }

// Page returns a page by ID.
func (w *Wiki) Page(id PageID) *Page { return w.pages[id] }

// Pages returns all pages; callers must not mutate the slice.
func (w *Wiki) Pages() []*Page { return w.pages }

// Resolve maps a (possibly variant) title to its page, following
// redirects, mirroring Wikipedia's title resolution.
func (w *Wiki) Resolve(title string) (*Page, bool) {
	return w.resolveNorm(lang.NormalizePhrase(title))
}

// resolveNorm is Resolve for a title already in lang.NormalizePhrase form.
func (w *Wiki) resolveNorm(norm string) (*Page, bool) {
	if id, ok := w.byTitle[norm]; ok {
		return w.pages[id], true
	}
	if id, ok := w.redirects[norm]; ok {
		return w.pages[id], true
	}
	return nil, false
}

// InDegree and OutDegree expose the link-graph degrees used by the
// association score.
func (w *Wiki) InDegree(id PageID) int  { return w.inDeg[id] }
func (w *Wiki) OutDegree(id PageID) int { return w.outDeg[id] }

// RedirectGroup returns all registered variant titles (normalized) that
// redirect to the page, sorted. The slice is the caller's own.
func (w *Wiki) RedirectGroup(id PageID) []string {
	return slices.Clone(w.redirectGroup[id])
}

// AnchorsFor returns the anchor texts (normalized) used across the wiki to
// link to the page, with their s(p,t) = tf(p,t)/f(p) scores, sorted by
// score descending then text. The slice is the caller's own.
func (w *Wiki) AnchorsFor(id PageID) []ScoredTerm {
	return slices.Clone(w.anchors[id])
}

// ScoredTerm pairs a normalized term with a score.
type ScoredTerm struct {
	Term  string
	Score float64
}
