package facet

import (
	"math"
	"strings"
	"testing"
)

func testEnv(t *testing.T) *Environment {
	t.Helper()
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func loadedSystem(t *testing.T, n int) *System {
	t.Helper()
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", n, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, Options{TopK: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	env := testEnv(t)
	if _, err := NewSystem(nil, Options{}); err == nil {
		t.Fatal("nil environment accepted")
	}
	if _, err := NewSystem(env, Options{TopK: -1}); err == nil {
		t.Fatal("negative TopK accepted")
	}
	if _, err := NewSystem(env, Options{Extractors: []string{"bogus"}}); err == nil {
		t.Fatal("unknown extractor accepted")
	}
	if _, err := NewSystem(env, Options{Resources: []string{"bogus"}}); err == nil {
		t.Fatal("unknown resource accepted")
	}
	for _, th := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := NewSystem(env, Options{SubsumptionThreshold: th}); err == nil {
			t.Fatalf("SubsumptionThreshold %v accepted", th)
		}
	}
	for _, th := range []float64{0, 0.5, 1} {
		if _, err := NewSystem(env, Options{SubsumptionThreshold: th}); err != nil {
			t.Fatalf("SubsumptionThreshold %v rejected: %v", th, err)
		}
	}
}

func TestGenerateNewsCorpusProfiles(t *testing.T) {
	env := testEnv(t)
	for _, p := range []string{"SNYT", "SNB", "MNYT"} {
		docs, err := env.GenerateNewsCorpus(p, 20, 3)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(docs) != 20 {
			t.Fatalf("%s: %d docs", p, len(docs))
		}
	}
	if _, err := env.GenerateNewsCorpus("BOGUS", 5, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestExtractFacetsEndToEnd(t *testing.T) {
	sys := loadedSystem(t, 150)
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facets) == 0 {
		t.Fatal("no facets extracted")
	}
	// Evidence invariants on every extracted term.
	for _, f := range res.Facets {
		if f.ShiftF <= 0 || f.ShiftR <= 0 {
			t.Fatalf("facet %q violates shift gates: %+v", f.Term, f)
		}
		if f.DFC <= f.DF {
			t.Fatalf("facet %q has no frequency gain", f.Term)
		}
		if f.Score < 0 {
			t.Fatalf("facet %q has negative score", f.Term)
		}
	}
	// Scores descending.
	for i := 1; i < len(res.Facets); i++ {
		if res.Facets[i].Score > res.Facets[i-1].Score {
			t.Fatal("facets not sorted by score")
		}
	}
	// The headline property: at least one multi-word general facet term
	// that never appears in any document (DF == 0 yet highly ranked).
	foundLatent := false
	for _, f := range res.Facets {
		if f.DF == 0 && f.DFC > 5 {
			foundLatent = true
			break
		}
	}
	if !foundLatent {
		t.Fatal("no latent facet term (DF=0) extracted — the paper's core phenomenon")
	}
}

func TestExtractFacetsEmptySystem(t *testing.T) {
	env := testEnv(t)
	sys, _ := NewSystem(env, Options{})
	if _, err := sys.ExtractFacets(); err == nil {
		t.Fatal("empty system should error")
	}
}

func TestHierarchyAndBrowser(t *testing.T) {
	sys := loadedSystem(t, 150)
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() == 0 || len(h.Roots()) == 0 {
		t.Fatal("empty hierarchy")
	}
	b, err := res.Browser(h)
	if err != nil {
		t.Fatal(err)
	}
	roots := b.Children("", Selection{})
	if len(roots) == 0 {
		t.Fatal("no browsable root facets")
	}
	top := roots[0]
	if b.Count(top.Term) != top.Count {
		t.Fatalf("Count mismatch for %q", top.Term)
	}
	docs := b.Docs(Selection{Terms: []string{top.Term}})
	if len(docs) != top.Count {
		t.Fatalf("Docs returned %d, count says %d", len(docs), top.Count)
	}
	// Drill-down must never grow the set.
	kids := b.Children(top.Term, Selection{Terms: []string{top.Term}})
	for _, k := range kids {
		if k.Count > top.Count {
			t.Fatalf("child %q larger than parent", k.Term)
		}
	}
	// Keyword restriction shrinks or keeps.
	d0 := sys.Document(0)
	word := strings.Fields(d0.Title)[0]
	all := len(b.Docs(Selection{}))
	filtered := len(b.Docs(Selection{Query: word}))
	if filtered > all {
		t.Fatal("query grew the selection")
	}
}

func TestSelectiveExtractorsAndResources(t *testing.T) {
	env := testEnv(t)
	docs, _ := env.GenerateNewsCorpus("SNYT", 80, 9)
	sys, err := NewSystem(env, Options{
		TopK:       50,
		Extractors: []string{"Wikipedia"},
		Resources:  []string{"Wikipedia Graph"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facets) == 0 {
		t.Fatal("single extractor/resource produced nothing")
	}
}

func TestVirtualNetworkTime(t *testing.T) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 1, ChargeLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := env.GenerateNewsCorpus("SNYT", 10, 2)
	sys, _ := NewSystem(env, Options{TopK: 20})
	for _, d := range docs {
		sys.Add(d)
	}
	if _, err := sys.ExtractFacets(); err != nil {
		t.Fatal(err)
	}
	if env.VirtualNetworkTime() == 0 {
		t.Fatal("latency charging enabled but no virtual time accumulated")
	}
	// Without charging, zero.
	env2 := testEnv(t)
	if env2.VirtualNetworkTime() != 0 {
		t.Fatal("uncharged environment reports time")
	}
}

func TestBuildHierarchyMethods(t *testing.T) {
	sys := loadedSystem(t, 120)
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"subsumption", "evidence", "treemin", "agglomerative"} {
		h, err := res.BuildHierarchyWith(m)
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if h.Size() == 0 {
			t.Fatalf("method %v produced empty hierarchy", m)
		}
		if _, err := res.Browser(h); err != nil {
			t.Fatalf("method %v: browser: %v", m, err)
		}
	}
	if _, err := res.BuildHierarchyWith("bogus"); err == nil {
		t.Fatal("unknown builder name accepted")
	}
}

// TestHierarchyBuilderOption: Options.HierarchyBuilder selects the
// default strategy for BuildHierarchy, round-tripping through
// NewSystem → ExtractFacetsContext → Result.
func TestHierarchyBuilderOption(t *testing.T) {
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, Options{TopK: 100, HierarchyBuilder: "agglomerative"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	viaOption, err := res.BuildHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := res.BuildHierarchyWith("agglomerative")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := viaOption.FormatTree(), explicit.FormatTree(); got != want {
		t.Fatalf("BuildHierarchy() ignored Options.HierarchyBuilder:\n--- option ---\n%s\n--- explicit ---\n%s", got, want)
	}
	subsumption, err := res.BuildHierarchyWith("subsumption")
	if err != nil {
		t.Fatal(err)
	}
	if viaOption.FormatTree() == subsumption.FormatTree() && len(viaOption.Roots()) == len(subsumption.Roots()) {
		t.Log("agglomerative and subsumption agree on this corpus (unusual but not wrong)")
	}
	if _, err := NewSystem(env, Options{HierarchyBuilder: "bogus"}); err == nil {
		t.Fatal("unknown HierarchyBuilder accepted by NewSystem")
	}
}

func TestGlossaryIntegration(t *testing.T) {
	env := testEnv(t)
	// A tiny financial corpus with glossary-only extraction and a
	// thesaurus-only resource — the Section VII scenario.
	docs := []Document{
		{Title: "markets", Text: "The hedge fund reported gains while the pension fund struggled with margin calls."},
		{Title: "markets", Text: "A hedge fund manager discussed derivatives and margin requirements."},
		{Title: "banking", Text: "The pension fund bought derivatives to offset interest rate risk."},
		{Title: "banking", Text: "Regulators examined derivatives and margin lending at the hedge fund."},
	}
	gloss, err := NewGlossaryExtractor("Finance Glossary", []string{"hedge fund", "pension fund", "derivatives", "margin"})
	if err != nil {
		t.Fatal(err)
	}
	thes, err := NewGlossaryResource("Finance Thesaurus", map[string][]string{
		"hedge fund":   {"alternative investments", "asset management"},
		"pension fund": {"institutional investors", "asset management"},
		"derivatives":  {"financial instruments", "risk management"},
		"margin":       {"leverage", "risk management"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, Options{
		TopK:            20,
		ExtraExtractors: []TermExtractor{gloss},
		ExtraResources:  []ContextResource{thes},
		Extractors:      []string{"NE"}, // avoid the news extractors dominating
		Resources:       []string{"Wikipedia Synonyms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range res.Facets {
		found[f.Term] = true
	}
	if !found["risk management"] || !found["asset management"] {
		t.Fatalf("glossary expansion terms missing: %v", res.Terms())
	}
}

func TestBrowserDateHistogram(t *testing.T) {
	sys := loadedSystem(t, 100)
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Browser(h)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := b.DateHistogram(Selection{}, "day")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, bucket := range hist {
		total += bucket.Count
	}
	if total != sys.Len() {
		t.Fatalf("histogram covers %d docs of %d", total, sys.Len())
	}
	if _, err := b.DateHistogram(Selection{}, "century"); err == nil {
		t.Fatal("bad granularity accepted")
	}
	// A date-range selection restricts Docs.
	if len(hist) > 0 {
		sel := Selection{From: hist[0].Bucket, To: hist[0].Bucket.AddDate(0, 0, 1)}
		if got := len(b.Docs(sel)); got != hist[0].Count {
			t.Fatalf("range selection got %d docs, histogram says %d", got, hist[0].Count)
		}
	}
}
