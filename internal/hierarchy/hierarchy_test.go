package hierarchy

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildNamed runs the registered builder name under a background context.
func buildNamed(name string, terms []string, docs [][]string, cfg BuildConfig) (*Forest, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("builder %q not registered", name)
	}
	return b.Build(context.Background(), terms, docs, cfg)
}

// docsWith builds docTerms where each entry lists the terms in one doc.
func docsWith(rows ...string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		if r == "" {
			continue
		}
		out[i] = strings.Split(r, ",")
	}
	return out
}

// Classic subsumption setup: "europe" occurs in every doc that mentions
// "france" or "germany", plus more.
func subsumptionFixture() ([]string, [][]string) {
	terms := []string{"europe", "france", "germany", "sports"}
	docs := docsWith(
		"europe,france",
		"europe,france",
		"europe,france",
		"europe,germany",
		"europe,germany",
		"europe",
		"sports",
		"sports",
		"sports,europe", // keeps P(sports|europe) < 1 and vice versa
	)
	return terms, docs
}

func TestBuildSubsumptionBasic(t *testing.T) {
	terms, docs := subsumptionFixture()
	f, err := buildNamed("subsumption", terms, docs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	europe, ok := f.Find("europe")
	if !ok {
		t.Fatal("europe missing")
	}
	if europe.Parent != nil {
		t.Fatalf("europe should be a root, has parent %q", europe.Parent.Term)
	}
	france, _ := f.Find("france")
	if france == nil || france.Parent == nil || france.Parent.Term != "europe" {
		t.Fatalf("france not under europe: %+v", france)
	}
	germany, _ := f.Find("germany")
	if germany.Parent == nil || germany.Parent.Term != "europe" {
		t.Fatal("germany not under europe")
	}
	sports, _ := f.Find("sports")
	if sports.Parent != nil {
		t.Fatalf("sports should be an independent root")
	}
}

func TestSubsumptionThreshold(t *testing.T) {
	terms := []string{"a", "b"}
	// P(a|b) = 2/3 < 0.8: no subsumption at θ=0.8, subsumption at θ=0.5.
	docs := docsWith("a,b", "a,b", "b", "a", "a")
	strict, _ := buildNamed("subsumption", terms, docs, BuildConfig{Threshold: 0.8})
	b, _ := strict.Find("b")
	if b.Parent != nil {
		t.Fatal("θ=0.8 should not attach b")
	}
	loose, _ := buildNamed("subsumption", terms, docs, BuildConfig{Threshold: 0.5})
	b2, _ := loose.Find("b")
	if b2.Parent == nil || b2.Parent.Term != "a" {
		t.Fatal("θ=0.5 should attach b under a")
	}
}

func TestSubsumptionDirectionality(t *testing.T) {
	// Perfect co-occurrence in both directions: P(y|x) = 1 blocks both.
	terms := []string{"x", "y"}
	docs := docsWith("x,y", "x,y", "x,y")
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	x, _ := f.Find("x")
	y, _ := f.Find("y")
	if x.Parent != nil || y.Parent != nil {
		t.Fatal("mutual full co-occurrence must not create a parent")
	}
}

func TestSubsumptionMinDF(t *testing.T) {
	terms := []string{"common", "rare"}
	docs := docsWith("common", "common", "common,rare")
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{MinDF: 2})
	if _, ok := f.Find("rare"); ok {
		t.Fatal("df-1 term should be dropped at MinDF=2")
	}
	if _, ok := f.Find("common"); !ok {
		t.Fatal("frequent term missing")
	}
}

func TestSubsumptionMostSpecificParent(t *testing.T) {
	// location ⊃ europe ⊃ france; france must attach to europe, not
	// directly to the more general location.
	terms := []string{"location", "europe", "france"}
	docs := docsWith(
		"location,europe,france",
		"location,europe,france",
		"location,europe,france",
		"location,europe",
		"location,europe",
		"location",
		"location",
		"", "", "", "", "", "", // padding keeps df fractions below saturation
	)
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{MaxChildDFFraction: 0.99})
	france, _ := f.Find("france")
	if france.Parent == nil || france.Parent.Term != "europe" {
		t.Fatalf("france parent = %v, want europe", france.Parent)
	}
	europe, _ := f.Find("europe")
	if europe.Parent == nil || europe.Parent.Term != "location" {
		t.Fatalf("europe parent = %v, want location", europe.Parent)
	}
}

// TestSubsumptionInvalidThreshold: both threshold-driven builders reject
// a θ outside [0,1], NaN included. A NaN θ fails every pxy < θ test, so
// before the check it accepted every pair: on the probe below it built
// a→b→c although P(a|b) = 2/3 and P(b|c) = 1/2.
func TestSubsumptionInvalidThreshold(t *testing.T) {
	terms := []string{"a", "b", "c"}
	docs := docsWith("a,b", "a", "a,c", "a,b,c", "b")
	f, err := buildNamed("subsumption", terms, docs, BuildConfig{Threshold: 0.8, MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTree(f), "a (4)\n  c (2)\nb (3)\n"; got != want {
		t.Fatalf("θ=0.8 probe forest:\n%s\nwant:\n%s", got, want)
	}
	for _, c := range []struct {
		builder string
		cfg     BuildConfig
	}{
		{"subsumption", BuildConfig{Threshold: 1.5}},
		{"subsumption", BuildConfig{Threshold: -0.1}},
		{"subsumption", BuildConfig{Threshold: math.NaN()}},
		{"subsumption", BuildConfig{Threshold: math.Inf(1)}},
		{"subsumption", BuildConfig{Threshold: math.Inf(-1)}},
		{"evidence", BuildConfig{Threshold: 1.5}},
		{"evidence", BuildConfig{Threshold: math.NaN()}},
		{"evidence", BuildConfig{Evidence: EvidenceOptions{Threshold: -0.5}}},
		{"evidence", BuildConfig{Evidence: EvidenceOptions{Threshold: math.NaN()}}},
		{"evidence", BuildConfig{Evidence: EvidenceOptions{Threshold: math.Inf(1)}}},
	} {
		if f, err := buildNamed(c.builder, terms, docs, c.cfg); err == nil {
			t.Errorf("%s with %+v: built\n%s\nwant an error", c.builder, c.cfg, FormatTree(f))
		} else if !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("%s with %+v: error %q", c.builder, c.cfg, err)
		}
	}
}

func TestForestWalkDepths(t *testing.T) {
	terms, docs := subsumptionFixture()
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	depths := map[string]int{}
	f.Walk(func(n *Node, d int) { depths[n.Term] = d })
	if depths["europe"] != 0 || depths["france"] != 1 {
		t.Fatalf("depths = %v", depths)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestTreeMinimization(t *testing.T) {
	chains := ChainFunc(func(term string) []string {
		switch term {
		case "france", "germany":
			return []string{"country", "region", "location", "entity"}
		case "war":
			return []string{"conflict", "event", "entity"}
		case "jacques chirac":
			return nil // named entity: WordNet has nothing
		}
		return nil
	})
	f, err := buildNamed("treemin", []string{"france", "germany", "war", "jacques chirac"}, nil, BuildConfig{Chains: chains})
	if err != nil {
		t.Fatal(err)
	}
	// "country" has two children (france, germany) and must survive;
	// single-child chain nodes like "region"→"location" collapse.
	country, ok := f.Find("country")
	if !ok {
		t.Fatal("country node missing")
	}
	if len(country.Children) != 2 {
		t.Fatalf("country children = %d", len(country.Children))
	}
	if _, ok := f.Find("region"); ok {
		t.Fatal("single-child non-input node 'region' not minimized away")
	}
	// Named entity with no chain becomes a root of its own.
	jc, ok := f.Find("jacques chirac")
	if !ok || jc.Parent != nil {
		t.Fatal("chain-less term should be a root")
	}
	// "war" sits under some surviving ancestor or is a root subtree; its
	// node must exist.
	if _, ok := f.Find("war"); !ok {
		t.Fatal("war missing")
	}
}

func TestTreeMinimizationSharedRootSurvives(t *testing.T) {
	chains := ChainFunc(func(term string) []string {
		switch term {
		case "a":
			return []string{"mid1", "top"}
		case "b":
			return []string{"mid2", "top"}
		}
		return nil
	})
	f, err := buildNamed("treemin", []string{"a", "b"}, nil, BuildConfig{Chains: chains})
	if err != nil {
		t.Fatal(err)
	}
	top, ok := f.Find("top")
	if !ok {
		t.Fatal("top missing")
	}
	if len(top.Children) != 2 {
		t.Fatalf("top children = %d, want 2 (a and b via collapsed mids)", len(top.Children))
	}
}

func TestBuildWithEvidencePromotesKnownIsA(t *testing.T) {
	// Co-occurrence alone is too weak (P(x|y) = 0.6 < 0.8), but WordNet
	// evidence pushes the combined score over the threshold.
	terms := []string{"europe", "france"}
	docs := docsWith("europe,france", "europe,france", "europe,france", "france", "france", "europe")
	wn := EvidenceFunc{EvidenceName: "wordnet", Fn: func(p, c string) float64 {
		if p == "europe" && c == "france" {
			return 1
		}
		return 0
	}}
	plain, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	fr, _ := plain.Find("france")
	if fr.Parent != nil {
		t.Fatal("fixture broken: plain subsumption should not attach france")
	}
	combined, err := buildNamed("evidence", terms, docs, BuildConfig{Evidence: EvidenceOptions{
		Sources:   []TaxonomicEvidence{wn},
		Threshold: 0.7,
	}})
	if err != nil {
		t.Fatal(err)
	}
	fr2, _ := combined.Find("france")
	if fr2.Parent == nil || fr2.Parent.Term != "europe" {
		t.Fatalf("evidence combination failed to attach france: %+v", fr2.Parent)
	}
}

func TestBuildWithEvidenceValidation(t *testing.T) {
	_, err := buildNamed("evidence", nil, nil, BuildConfig{Evidence: EvidenceOptions{
		Sources: []TaxonomicEvidence{EvidenceFunc{EvidenceName: "x", Fn: func(_, _ string) float64 { return 0 }}},
		Weights: []float64{1, 2},
	}})
	if err == nil {
		t.Fatal("expected weight/source mismatch error")
	}
}

func TestBuildWithEvidenceDirectionalityStillHolds(t *testing.T) {
	terms := []string{"x", "y"}
	docs := docsWith("x,y", "x,y")
	ev := EvidenceFunc{EvidenceName: "always", Fn: func(_, _ string) float64 { return 1 }}
	f, _ := buildNamed("evidence", terms, docs, BuildConfig{Evidence: EvidenceOptions{Sources: []TaxonomicEvidence{ev}}})
	x, _ := f.Find("x")
	y, _ := f.Find("y")
	if x.Parent != nil || y.Parent != nil {
		t.Fatal("P(y|x)=1 must still block attachment")
	}
}

func TestDuplicateTermsHandled(t *testing.T) {
	terms := []string{"a", "a", "b"}
	docs := docsWith("a,b", "a,b", "a")
	f, err := buildNamed("subsumption", terms, docs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Fatalf("size = %d, want 2", f.Size())
	}
}

func TestSaturatedTermsStayRoots(t *testing.T) {
	// "everywhere" occurs in 90% of docs: at that density P(x|y) >= 0.8
	// holds against nearly anything by saturation, so it must remain a
	// root rather than attach under an even more frequent term.
	terms := []string{"everywhere", "common"}
	var docs [][]string
	for i := 0; i < 9; i++ {
		docs = append(docs, []string{"everywhere", "common"})
	}
	docs = append(docs, []string{"common"})
	f, err := buildNamed("subsumption", terms, docs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := f.Find("everywhere")
	if ev.Parent != nil {
		t.Fatalf("saturated term attached under %q", ev.Parent.Term)
	}
	// Disabling the cutoff allows the attachment.
	f2, _ := buildNamed("subsumption", terms, docs, BuildConfig{MaxChildDFFraction: 2})
	ev2, _ := f2.Find("everywhere")
	if ev2.Parent == nil {
		t.Fatal("cutoff-disabled build should attach the frequent term")
	}
}

func TestParentMustBeMoreGeneral(t *testing.T) {
	// df(x) <= df(y) blocks parenthood even when P(x|y) is high.
	terms := []string{"a", "b"}
	docs := docsWith("a,b", "a,b", "a,b", "a,b", "b", "", "", "", "", "")
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	a, _ := f.Find("a")
	if a.Parent == nil || a.Parent.Term != "b" {
		t.Fatalf("a (df=4) should sit under b (df=5), got %+v", a.Parent)
	}
	b, _ := f.Find("b")
	if b.Parent != nil {
		t.Fatal("more frequent term must not attach under less frequent one")
	}
}

func TestQuickSubsumptionInvariants(t *testing.T) {
	// Property: for any random co-occurrence structure, the forest is
	// acyclic, every parent is strictly more frequent than its child, and
	// every term meeting the df floor appears exactly once.
	f := func(seed uint16) bool {
		rng := int(seed)
		next := func(n int) int {
			rng = (rng*1103515245 + 12345) & 0x7fffffff
			return rng % n
		}
		terms := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
		docs := make([][]string, 40)
		for d := range docs {
			for _, tm := range terms {
				if next(3) == 0 {
					docs[d] = append(docs[d], tm)
				}
			}
		}
		forest, err := buildNamed("subsumption", terms, docs, BuildConfig{MinDF: 1})
		if err != nil {
			return false
		}
		seen := map[string]int{}
		ok := true
		forest.Walk(func(n *Node, depth int) {
			seen[n.Term]++
			if n.Parent != nil && n.Parent.DF <= n.DF {
				ok = false
			}
			if depth > len(terms) {
				ok = false // cycle would show as unbounded depth
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExportDOT(t *testing.T) {
	terms, docs := subsumptionFixture()
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	var buf strings.Builder
	if err := WriteDOT(&buf, f, "test"); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph", `"europe" -> "france"`, "(7)"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	terms, docs := subsumptionFixture()
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	var buf strings.Builder
	if err := WriteJSON(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != f.Size() {
		t.Fatalf("round trip size %d vs %d", back.Size(), f.Size())
	}
	fr, ok := back.Find("france")
	if !ok || fr.Parent == nil || fr.Parent.Term != "europe" {
		t.Fatal("structure lost in round trip")
	}
	if fr.DF != 3 {
		t.Fatalf("df lost: %d", fr.DF)
	}
}

func TestFromJSONRejectsBadInput(t *testing.T) {
	if _, err := FromJSON([]*JSONNode{{Term: ""}}); err == nil {
		t.Fatal("empty term accepted")
	}
	if _, err := FromJSON([]*JSONNode{{Term: "a"}, {Term: "a"}}); err == nil {
		t.Fatal("duplicate term accepted")
	}
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestFormatTree(t *testing.T) {
	terms, docs := subsumptionFixture()
	f, _ := buildNamed("subsumption", terms, docs, BuildConfig{})
	out := FormatTree(f)
	if !strings.Contains(out, "  france (3)") {
		t.Fatalf("tree format wrong:\n%s", out)
	}
}
