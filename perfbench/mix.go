package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// vocab is what the request generator may name: facet terms ranked by
// document frequency, the terms that have children, keywords ranked by
// title frequency, and the corpus's date span.
type vocab struct {
	terms    []string
	parents  []string
	keywords []string
	first    time.Time
	days     int
}

func vocabOf(iface *browse.Interface) vocab {
	type node struct {
		term string
		df   int
		kids int
	}
	var nodes []node
	iface.Forest().Walk(func(n *hierarchy.Node, _ int) {
		nodes = append(nodes, node{n.Term, n.DF, len(n.Children)})
	})
	sort.Slice(nodes, func(a, b int) bool {
		if nodes[a].df != nodes[b].df {
			return nodes[a].df > nodes[b].df
		}
		return nodes[a].term < nodes[b].term
	})
	var v vocab
	for _, n := range nodes {
		v.terms = append(v.terms, n.term)
		if n.kids > 0 {
			v.parents = append(v.parents, n.term)
		}
	}
	corpus := iface.Corpus()
	freq := map[string]int{}
	var lo, hi time.Time
	for i := 0; i < corpus.Len(); i++ {
		d := corpus.Doc(textdb.DocID(i))
		for _, w := range strings.Fields(strings.ToLower(d.Title)) {
			w = strings.Trim(w, ".,;:!?'\"()")
			if len(w) >= 5 {
				freq[w]++
			}
		}
		if lo.IsZero() || d.Date.Before(lo) {
			lo = d.Date
		}
		if d.Date.After(hi) {
			hi = d.Date
		}
	}
	for w := range freq {
		v.keywords = append(v.keywords, w)
	}
	sort.Slice(v.keywords, func(a, b int) bool {
		wa, wb := v.keywords[a], v.keywords[b]
		if freq[wa] != freq[wb] {
			return freq[wa] > freq[wb]
		}
		return wa < wb
	})
	v.first = time.Date(lo.Year(), lo.Month(), lo.Day(), 0, 0, 0, 0, time.UTC)
	v.days = int(hi.Sub(v.first).Hours()/24) + 1
	return v
}

// mixGen draws requests from a seeded generator. Terms, parents and
// keywords are Zipf-skewed (exponent 1.1) toward the most frequent.
//
// The mix is an assumption, not measured traffic: no log of this
// system's users exists, and the route shares in next (10% root menus,
// 25% one level down, 10% drill-down conjunctions, 20% result lists, 10%
// date histograms, 5% cross-tabs, 20% keyword search), the date range on
// a quarter of the menu and result-list requests and the Zipf exponent
// are choices that exercise every read route with skewed popularity.
// What the mix does to the engine is measured instead: each run's noise
// line reports the distinct selections it drew and the query cache's hit
// rate.
type mixGen struct {
	r                  *rand.Rand
	v                  vocab
	term, parent, word *rand.Zipf
}

func newMixGen(v vocab, seed uint64) *mixGen {
	r := rand.New(rand.NewSource(int64(seed)))
	zipf := func(n int) *rand.Zipf {
		if n < 2 {
			n = 2
		}
		return rand.NewZipf(r, 1.1, 1, uint64(n-1))
	}
	return &mixGen{r: r, v: v, term: zipf(len(v.terms)), parent: zipf(len(v.parents)), word: zipf(len(v.keywords))}
}

func pick(list []string, z *rand.Zipf) string {
	return list[int(z.Uint64())%len(list)]
}

// dateRange adds a from/to window of one to seven days to q on a quarter
// of the requests it is offered.
func (g *mixGen) dateRange(q url.Values) {
	if g.r.Intn(4) != 0 || g.v.days < 2 {
		return
	}
	from := g.v.first.AddDate(0, 0, g.r.Intn(g.v.days))
	q.Set("from", from.Format("2006-01-02"))
	q.Set("to", from.AddDate(0, 0, 1+g.r.Intn(7)).Format("2006-01-02"))
}

// selection returns one or two distinct drill-down terms.
func (g *mixGen) selection(two bool) string {
	a := pick(g.v.terms, g.term)
	if !two {
		return a
	}
	for i := 0; i < 8; i++ {
		if b := pick(g.v.terms, g.term); b != a {
			return a + "," + b
		}
	}
	return a
}

// next draws one request path with its query string, in the route
// shares given at mixGen.
func (g *mixGen) next() string {
	q := url.Values{}
	var route string
	switch k := g.r.Intn(100); {
	case k < 10: // root menu
		route = "facets"
		g.dateRange(q)
	case k < 35: // one level down, sometimes under a selection
		route = "facets"
		q.Set("parent", pick(g.v.parents, g.parent))
		if g.r.Intn(2) == 0 {
			q.Set("terms", g.selection(false))
		}
		g.dateRange(q)
	case k < 45: // drill-down conjunction
		route = "facets"
		q.Set("parent", pick(g.v.parents, g.parent))
		q.Set("terms", g.selection(true))
	case k < 65: // result list under a selection
		route = "docs"
		q.Set("terms", g.selection(g.r.Intn(3) == 0))
		q.Set("limit", "20")
		g.dateRange(q)
	case k < 75: // time facet
		route = "dates"
		q.Set("terms", g.selection(false))
		q.Set("granularity", "day")
	case k < 80: // pivot of two facets
		route = "cross"
		q.Set("a", pick(g.v.parents, g.parent))
		q.Set("b", pick(g.v.parents, g.parent))
		if g.r.Intn(2) == 0 {
			q.Set("terms", g.selection(false))
		}
	default: // keyword search, sometimes within a facet
		route = "docs"
		q.Set("q", pick(g.v.keywords, g.word))
		q.Set("limit", "10")
		if g.r.Intn(3) == 0 {
			q.Set("terms", g.selection(false))
		}
	}
	if len(q) == 0 {
		return "/api/v1/" + route
	}
	return "/api/v1/" + route + "?" + q.Encode()
}

// buildMix draws n requests.
func buildMix(v vocab, seed uint64, n int) []string {
	g := newMixGen(v, seed)
	out := make([]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// distinctSelections counts the distinct (terms, q, from, to)
// selections among the first n requests of the mix — the number of
// query-cache keys the mix can fill.
func distinctSelections(mix []string, n int) int {
	seen := map[string]bool{}
	for i := 0; i < n && i < len(mix); i++ {
		u, err := url.Parse(mix[i])
		if err != nil {
			continue
		}
		q := u.Query()
		seen[q.Get("terms")+"\x00"+q.Get("q")+"\x00"+q.Get("from")+"\x00"+q.Get("to")] = true
	}
	return len(seen)
}

// routeOf returns the route name of a request path ("facets", "docs",
// "dates", "cross", "ingest").
func routeOf(path string) string {
	p := strings.TrimPrefix(path, "/api/v1/")
	p = strings.TrimPrefix(p, "cluster/")
	if i := strings.IndexAny(p, "?"); i >= 0 {
		p = p[:i]
	}
	return p
}

// itoa is strconv.Itoa for int64 request ids.
func itoa(i int64) string { return strconv.FormatInt(i, 10) }
