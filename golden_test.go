package facet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
)

// The golden regression harness pins the full pipeline's observable
// output — corpus, facet ranking, rendered hierarchy, and browse query
// answers — byte for byte. Run `go test -run Golden ./...` to diff
// against the checked-in files and `go test -run Golden -update` to
// regenerate them after an intentional behavior change (review the git
// diff of testdata/golden/ before committing).

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden instead of diffing against them")

// goldenFixture is built once per test binary: a 60-document SNYT corpus
// through the full pipeline.
type goldenState struct {
	sys    *System
	res    *Result
	hier   *Hierarchy
	iface  *browse.Interface
	docs   []Document
	outErr error
}

var (
	goldenOnce sync.Once
	golden     goldenState
)

func goldenFixture(t *testing.T) *goldenState {
	t.Helper()
	goldenOnce.Do(func() {
		env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
		if err != nil {
			golden.outErr = err
			return
		}
		docs, err := env.GenerateNewsCorpus("SNYT", 60, 7)
		if err != nil {
			golden.outErr = err
			return
		}
		sys, err := NewSystem(env, Options{TopK: 80})
		if err != nil {
			golden.outErr = err
			return
		}
		for _, d := range docs {
			sys.Add(d)
		}
		res, err := sys.ExtractFacets()
		if err != nil {
			golden.outErr = err
			return
		}
		hier, err := res.BuildHierarchy()
		if err != nil {
			golden.outErr = err
			return
		}
		iface, err := res.BrowseEngine(hier)
		if err != nil {
			golden.outErr = err
			return
		}
		golden = goldenState{sys: sys, res: res, hier: hier, iface: iface, docs: docs}
	})
	if golden.outErr != nil {
		t.Fatal(golden.outErr)
	}
	return &golden
}

// compareGolden diffs got against testdata/golden/<name>, or rewrites
// the file under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — run `go test -run Golden -update ./...` to create it: %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s differs from golden at line %d:\n  got:  %q\n  want: %q\n(run with -update after an intentional change)", name, i+1, g, w)
		}
	}
	t.Fatalf("%s differs from golden (run with -update after an intentional change)", name)
}

// TestGoldenCorpus pins the deterministic corpus itself: every document's
// identity fields. A diff here means generation changed, which would
// cascade into every other golden.
func TestGoldenCorpus(t *testing.T) {
	g := goldenFixture(t)
	var sb strings.Builder
	for i, d := range g.docs {
		fmt.Fprintf(&sb, "%03d\t%s\t%s\t%s\t%d\n", i, d.Title, d.Source, d.Date.UTC().Format(time.RFC3339), len(d.Text))
	}
	compareGolden(t, "corpus.tsv", []byte(sb.String()))
}

// TestGoldenFacetRanking pins the candidate ranking with its full
// statistical evidence (Step 3's output).
func TestGoldenFacetRanking(t *testing.T) {
	g := goldenFixture(t)
	var sb strings.Builder
	sb.WriteString("rank\tterm\tdf\tdfc\tshift_f\tshift_r\tscore\n")
	for i, f := range g.res.Facets {
		fmt.Fprintf(&sb, "%d\t%s\t%d\t%d\t%d\t%d\t%s\n",
			i+1, f.Term, f.DF, f.DFC, f.ShiftF, f.ShiftR,
			strconv.FormatFloat(f.Score, 'g', 17, 64))
	}
	compareGolden(t, "facet_ranking.tsv", []byte(sb.String()))
}

// TestGoldenHierarchy pins the rendered facet hierarchy.
func TestGoldenHierarchy(t *testing.T) {
	g := goldenFixture(t)
	compareGolden(t, "hierarchy.txt", []byte(hierarchy.FormatTree(g.hier.forest)))
}

// TestGoldenHierarchySubsumptionPredicate recomputes the golden
// hierarchy from the facade's document assignment alone, at the defaults
// BuildHierarchy uses (θ = 0.8, df floor 2, saturation cutoff 0.6). The
// forest holds exactly the facet terms with df ≥ 2. Every edge y→x (x the
// parent) has P(x|y) = co/df(y) ≥ θ, P(y|x) = co/df(x) < 1,
// df(x) > df(y) and df(y) ≤ ⌊0.6·N⌋, and x is the most specific such
// term (smaller df, then higher P(x|y), then term text); a root has none.
func TestGoldenHierarchySubsumptionPredicate(t *testing.T) {
	g := goldenFixture(t)
	const theta, minDF, maxChildFrac = 0.8, 2, 0.6
	forest, docTerms := g.hier.forest, g.hier.docTerms
	isTerm := map[string]bool{}
	for _, term := range g.res.Terms() {
		isTerm[term] = true
	}
	df := map[string]int{}
	co := map[[2]string]int{}
	for _, row := range docTerms {
		for _, a := range row {
			if !isTerm[a] {
				t.Fatalf("assigned term %q is no facet term", a)
			}
			df[a]++
			for _, b := range row {
				co[[2]string{a, b}]++
			}
		}
	}
	var alive []string
	for term := range isTerm {
		if df[term] >= minDF {
			alive = append(alive, term)
		}
	}
	if forest.Size() != len(alive) {
		t.Fatalf("forest has %d terms, %d have df >= %d", forest.Size(), len(alive), minDF)
	}
	maxChildDF := int(maxChildFrac * float64(len(docTerms)))
	subsumes := func(x, y string) (float64, bool) {
		c := co[[2]string{x, y}]
		pxy := float64(c) / float64(df[y])
		return pxy, x != y && df[x] > df[y] && df[y] <= maxChildDF &&
			pxy >= theta && float64(c)/float64(df[x]) < 1
	}
	edges := 0
	for _, y := range alive {
		node, ok := forest.Find(y)
		if !ok {
			t.Fatalf("term %q (df %d) missing from the forest", y, df[y])
		}
		best, bestP := "", 0.0
		for _, x := range alive {
			pxy, ok := subsumes(x, y)
			if ok && (best == "" || df[x] < df[best] ||
				df[x] == df[best] && (pxy > bestP || pxy == bestP && x < best)) {
				best, bestP = x, pxy
			}
		}
		switch {
		case node.Parent == nil && best != "":
			t.Errorf("%q is a root, but %q subsumes it", y, best)
		case node.Parent != nil:
			edges++
			x := node.Parent.Term
			if _, ok := subsumes(x, y); !ok {
				t.Errorf("edge %q→%q fails the predicate (co %d, df %d/%d)", y, x, co[[2]string{x, y}], df[y], df[x])
			} else if x != best {
				t.Errorf("%q sits under %q, but %q is the most specific subsumer", y, x, best)
			}
		}
	}
	if edges == 0 {
		t.Fatal("golden hierarchy has no edges to check")
	}
}

// goldenQuery is one browse query and its pinned answer.
type goldenQuery struct {
	Label    string              `json:"label"`
	Terms    []string            `json:"terms,omitempty"`
	Query    string              `json:"query,omitempty"`
	From     string              `json:"from,omitempty"`
	To       string              `json:"to,omitempty"`
	Count    int                 `json:"count"`
	Docs     []int               `json:"docs"`
	RootMenu []browse.FacetCount `json:"root_menu"`
}

// TestGoldenBrowseQueries pins end-to-end browse answers: drill-down,
// conjunction, keyword search, and date ranges, each with its
// count-annotated root menu.
func TestGoldenBrowseQueries(t *testing.T) {
	g := goldenFixture(t)
	roots := g.iface.Children("", browse.Selection{})
	if len(roots) < 2 {
		t.Fatalf("fixture hierarchy has %d root facets; need at least 2", len(roots))
	}
	r0, r1 := roots[0].Term, roots[1].Term
	from := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 6, 0)
	sels := []struct {
		label string
		sel   browse.Selection
	}{
		{"everything", browse.Selection{}},
		{"first root", browse.Selection{Terms: []string{r0}}},
		{"second root", browse.Selection{Terms: []string{r1}}},
		{"two-facet conjunction", browse.Selection{Terms: []string{r0, r1}}},
		{"keyword", browse.Selection{Query: "minister"}},
		{"facet plus keyword", browse.Selection{Terms: []string{r0}, Query: "minister"}},
		{"date range", browse.Selection{From: from, To: to}},
		{"facet plus dates", browse.Selection{Terms: []string{r0}, From: from, To: to}},
	}
	out := make([]goldenQuery, 0, len(sels))
	for _, c := range sels {
		q := goldenQuery{
			Label: c.label, Terms: c.sel.Terms, Query: c.sel.Query,
			Count:    g.iface.MatchCount(c.sel),
			Docs:     []int{},
			RootMenu: g.iface.Children("", c.sel),
		}
		if !c.sel.From.IsZero() {
			q.From = c.sel.From.UTC().Format(time.RFC3339)
		}
		if !c.sel.To.IsZero() {
			q.To = c.sel.To.UTC().Format(time.RFC3339)
		}
		for _, id := range g.iface.Docs(c.sel) {
			q.Docs = append(q.Docs, int(id))
		}
		out = append(out, q)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "browse_queries.json", append(data, '\n'))
}

// TestGoldenAnswersMatchNaiveScan cross-checks the golden browse answers
// against the naive full-scan path, so the pinned files cannot encode an
// indexed-path bug.
func TestGoldenAnswersMatchNaiveScan(t *testing.T) {
	g := goldenFixture(t)
	roots := g.iface.Children("", browse.Selection{})
	if len(roots) == 0 {
		t.Fatal("no root facets")
	}
	sel := browse.Selection{Terms: []string{roots[0].Term}}
	naive := g.iface.ScanDocs(sel)
	indexed := g.iface.Docs(sel)
	if len(naive) != len(indexed) {
		t.Fatalf("indexed %v != naive %v", indexed, naive)
	}
	for i := range naive {
		if naive[i] != indexed[i] {
			t.Fatalf("indexed %v != naive %v", indexed, naive)
		}
	}
}
