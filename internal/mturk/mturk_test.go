package mturk

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/newsgen"
	"repro/internal/ontology"
)

func testKB(t *testing.T) *ontology.KB {
	t.Helper()
	kb, err := ontology.Build(ontology.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestValidateAgreement(t *testing.T) {
	raw := [][]string{
		{"war", "politics", "france"},
		{"war", "sports"},
		{"war", "politics"},
		{"music"},
		{"france", "france"}, // duplicates within one annotator count once
	}
	got := ValidateAgreement(raw, 2)
	want := []string{"france", "politics", "war"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := ValidateAgreement(raw, 3); !reflect.DeepEqual(got, []string{"war"}) {
		t.Fatalf("minAgree=3 got %v", got)
	}
}

func TestAnnotateStoryDeterministicPerKey(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 7})
	facets := []ontology.ConceptID{kb.FacetTerms()[3].ID, kb.FacetTerms()[10].ID, kb.FacetTerms()[20].ID}
	a := pool.AnnotateStory(5, facets)
	b := pool.AnnotateStory(5, facets)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same story key produced different annotations")
	}
	c := pool.AnnotateStory(6, facets)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different story keys produced identical annotations")
	}
	if len(a) != 5 {
		t.Fatalf("annotators = %d, want 5", len(a))
	}
	for _, list := range a {
		if len(list) > 10 {
			t.Fatalf("annotator exceeded 10-term cap: %d", len(list))
		}
	}
}

func TestBuildGroundTruthFiltersNoise(t *testing.T) {
	kb := testKB(t)
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(100), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(kb, Config{Seed: 7})
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	gt := pool.BuildGroundTruth(ds, idx)
	if len(gt.Terms) == 0 {
		t.Fatal("empty ground truth")
	}
	if len(gt.Stories) != 100 {
		t.Fatalf("stories = %d", len(gt.Stories))
	}
	// Validated per-story terms must be dominated by true trace facets:
	// count how many validated terms are genuine.
	genuine, total := 0, 0
	for i, story := range gt.Stories {
		truth := map[string]bool{}
		for _, f := range ds.Traces[i].Facets {
			truth[kb.Concept(f).Name] = true
		}
		for _, term := range story {
			total++
			if truth[term] {
				genuine++
			}
		}
	}
	if total == 0 {
		t.Fatal("no validated terms at all")
	}
	if rate := float64(genuine) / float64(total); rate < 0.85 {
		t.Fatalf("agreement validation kept %.2f genuine, want >= 0.85", rate)
	}
}

func TestGroundTruthRecallMatching(t *testing.T) {
	kb := testKB(t)
	ds, _ := newsgen.Generate(kb, newsgen.SNYT.WithDocs(30), 3)
	pool := NewPool(kb, Config{Seed: 7})
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	gt := pool.BuildGroundTruth(ds, idx)
	// Perfect extraction: recall 1.
	if r := gt.Recall(gt.Terms); r != 1 {
		t.Fatalf("self recall = %v", r)
	}
	// Stem variation still matches.
	if len(gt.Terms) > 0 {
		term := gt.Terms[0]
		if !gt.Contains(term + "s") {
			t.Logf("pluralized %q did not match (acceptable for irregulars)", term)
		}
	}
	if r := gt.Recall(nil); r != 0 {
		t.Fatalf("empty extraction recall = %v", r)
	}
	if r := gt.Recall([]string{"zzz", "qqq"}); r != 0 {
		t.Fatalf("junk extraction recall = %v", r)
	}
}

func TestMatchFacetStemAndAlias(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 1})
	// Direct stem match: "markets" facet via "market".
	if _, ok := pool.MatchFacet("market"); !ok {
		t.Fatal("stem match failed for market")
	}
	// Alias: "person" denotes People.
	id, ok := pool.MatchFacet("person")
	if !ok {
		t.Fatal("alias match failed for person")
	}
	people, _ := kb.ByName("People")
	if id != people.ID {
		t.Fatalf("person resolved to %q", kb.Concept(id).Display)
	}
	if _, ok := pool.MatchFacet("jacques chirac"); ok {
		t.Fatal("entity matched a facet")
	}
}

func TestQualificationFiltersBadJudges(t *testing.T) {
	kb := testKB(t)
	// Low-accuracy pool: almost nobody should pass 18/20.
	bad := NewPool(kb, Config{Seed: 5, JudgeAccuracy: 0.6})
	passedBad := 0
	for i := 0; i < 200; i++ {
		if bad.Qualify(i) {
			passedBad++
		}
	}
	good := NewPool(kb, Config{Seed: 5, JudgeAccuracy: 0.95})
	passedGood := 0
	for i := 0; i < 200; i++ {
		if good.Qualify(i) {
			passedGood++
		}
	}
	if passedBad >= passedGood {
		t.Fatalf("qualification not selective: bad=%d good=%d", passedBad, passedGood)
	}
	if passedGood < 50 {
		t.Fatalf("qualification too strict for competent judges: %d/200", passedGood)
	}
}

func TestQualifiedJudgesCount(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 5})
	judges := pool.QualifiedJudges(5)
	if len(judges) != 5 {
		t.Fatalf("got %d judges", len(judges))
	}
}

// buildForest builds a tiny hierarchy by hand through the subsumption
// builder, so nodes have correct Parent wiring.
func buildForest(t *testing.T, parentChild map[string][]string, roots []string) *hierarchy.Forest {
	t.Helper()
	// Encode the desired tree as co-occurrence: parent occurs in every doc
	// of each child, children disjoint.
	var terms []string
	var docs [][]string
	add := func(term string) {
		terms = append(terms, term)
	}
	for _, r := range roots {
		add(r)
	}
	var walk func(parent string, ancestors []string)
	walk = func(parent string, ancestors []string) {
		for _, c := range parentChild[parent] {
			add(c)
			full := append(append([]string{}, ancestors...), parent, c)
			for i := 0; i < 4; i++ {
				docs = append(docs, full)
			}
			walk(c, append(append([]string{}, ancestors...), parent))
		}
	}
	for _, r := range roots {
		walk(r, nil)
		docs = append(docs, []string{r}, []string{r})
	}
	// Padding documents keep every term below the saturation cutoff.
	for i, n := 0, 3*len(docs); i < n; i++ {
		docs = append(docs, nil)
	}
	builder, _ := hierarchy.Lookup("subsumption")
	f, err := builder.Build(context.Background(), terms, docs, hierarchy.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestJudgePrecisionGoodHierarchy(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 9})
	// A correct mini-hierarchy: location > europe > france.
	f := buildForest(t, map[string][]string{
		"location": {"europe"},
		"europe":   {"france", "germany"},
	}, []string{"location"})
	judgments, precision := pool.JudgePrecision(f)
	if len(judgments) != 4 {
		t.Fatalf("judged %d terms", len(judgments))
	}
	if precision < 0.75 {
		t.Fatalf("precision of correct hierarchy = %v, want high", precision)
	}
}

func TestJudgePrecisionBadHierarchy(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 9})
	// Garbage terms under wrong parents.
	f := buildForest(t, map[string][]string{
		"zzqx":   {"wwvk"},
		"sports": {"france"}, // real terms, wrong placement
	}, []string{"zzqx", "sports"})
	judgments, precision := pool.JudgePrecision(f)
	badCount := 0
	for _, j := range judgments {
		if !j.Truth {
			badCount++
		}
	}
	if badCount < 3 {
		t.Fatalf("expected >= 3 ground-false terms, got %d", badCount)
	}
	if precision > 0.6 {
		t.Fatalf("precision of garbage hierarchy = %v, want low", precision)
	}
}

func TestJudgePrecisionEmptyForest(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 9})
	builder, _ := hierarchy.Lookup("subsumption")
	f, _ := builder.Build(context.Background(), nil, nil, hierarchy.BuildConfig{})
	j, p := pool.JudgePrecision(f)
	if j != nil || p != 0 {
		t.Fatal("empty forest should judge to nothing")
	}
}

func TestPlacedOKCommonNounChain(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 2})
	f := buildForest(t, map[string][]string{
		"leader": {"politician"},
	}, []string{"leader"})
	n, ok := f.Find("politician")
	if !ok || n.Parent == nil {
		t.Fatal("fixture broken")
	}
	if !pool.placedOK(n) {
		t.Fatal("politician under leader should be correctly placed (is-a chain)")
	}
}

func TestFacetSubsumes(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 3})
	gov, _ := kb.ByName("Government")
	pl, _ := kb.ByName("Political Leaders")
	// Every political leader is a government figure in the KB.
	if !pool.facetSubsumes(gov.ID, pl.ID) {
		t.Fatal("Government should plausibly subsume Political Leaders")
	}
	// The reverse fails: most government-related entities are not leaders?
	// (Politicians dominate Government, so test a clearly wrong pair.)
	sports, _ := kb.ByName("Sports")
	if pool.facetSubsumes(sports.ID, pl.ID) {
		t.Fatal("Sports must not subsume Political Leaders")
	}
	if pool.facetSubsumes(pl.ID, sports.ID) {
		t.Fatal("Political Leaders must not subsume Sports")
	}
}

func TestPlacedOKCrossDimension(t *testing.T) {
	kb := testKB(t)
	pool := NewPool(kb, Config{Seed: 3})
	f := buildForest(t, map[string][]string{
		"government": {"political leaders"},
	}, []string{"government"})
	n, ok := f.Find("political leaders")
	if !ok || n.Parent == nil {
		t.Fatal("fixture broken")
	}
	if !pool.placedOK(n) {
		t.Fatal("political leaders under government should be accepted")
	}
}

func TestFleissKappa(t *testing.T) {
	// Perfect agreement: everyone assigns or nobody does.
	k, ok := FleissKappa([]int{5, 5, 0, 0, 5}, 5)
	if !ok || k != 1 {
		t.Fatalf("perfect agreement kappa = %v %v", k, ok)
	}
	// Maximal disagreement on a two-category scale with 2 raters.
	k, ok = FleissKappa([]int{1, 1, 1, 1}, 2)
	if !ok || k >= 0 {
		t.Fatalf("coin-flip kappa = %v, want negative", k)
	}
	// Invalid inputs.
	if _, ok := FleissKappa(nil, 5); ok {
		t.Fatal("empty ratings accepted")
	}
	if _, ok := FleissKappa([]int{1}, 1); ok {
		t.Fatal("single annotator accepted")
	}
	if _, ok := FleissKappa([]int{7}, 5); ok {
		t.Fatal("rating above annotator count accepted")
	}
}

func TestMeasureAgreement(t *testing.T) {
	kb := testKB(t)
	ds, err := newsgen.Generate(kb, newsgen.SNYT.WithDocs(60), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(kb, Config{Seed: 7})
	idx := make([]int, 60)
	for i := range idx {
		idx[i] = i
	}
	rep := pool.MeasureAgreement(ds, idx)
	if rep.Stories != 60 || rep.TermPairs == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Binary per-term agreement is weak by design (per-term recall 0.6
	// plus idiosyncratic noise): kappa lands just above chance — which is
	// exactly why the paper validates with the lenient >= 2-of-5 rule
	// instead of requiring consensus. It must still be above chance and
	// far from perfect.
	if rep.Kappa <= 0 || rep.Kappa >= 0.8 {
		t.Fatalf("kappa = %v outside plausible band", rep.Kappa)
	}
	if rep.MeanAgreed <= 0.4 || rep.MeanAgreed > 1 {
		t.Fatalf("mean agreement = %v", rep.MeanAgreed)
	}
}
