package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/lang"
	"repro/internal/newsgen"
)

// sharedLab and sharedRun are built once; experiments over a 200-document
// SNYT keep the test suite fast while exercising every runner.
var (
	sharedLab *Lab
	sharedRun *DataRun
)

func testRun(t *testing.T) *DataRun {
	t.Helper()
	if sharedRun != nil {
		return sharedRun
	}
	lab, err := NewLab(42)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := lab.NewDataRun(newsgen.SNYT.WithDocs(200), 7)
	if err != nil {
		t.Fatal(err)
	}
	sharedLab, sharedRun = lab, dr
	return dr
}

func TestRecallTableShape(t *testing.T) {
	dr := testRun(t)
	table, gt := RecallTable(dr, RecallConfig{SampleSize: 200})
	if len(gt.Terms) < 30 {
		t.Fatalf("ground truth too small: %d", len(gt.Terms))
	}
	if len(table.Rows) != 5 || len(table.Cols) != 4 {
		t.Fatalf("table shape %dx%d", len(table.Rows), len(table.Cols))
	}
	// Paper shape: Wikipedia Graph and Google dominate WordNet and
	// Synonyms; the All row is at least as good as any single resource at
	// the All-extractors column minus small analysis interactions.
	graph, _ := table.Cell(ResWikiGraph, ExtAll)
	google, _ := table.Cell(ResGoogle, ExtAll)
	wn, _ := table.Cell(ResWordNet, ExtAll)
	syn, _ := table.Cell(ResWikiSyn, ExtAll)
	all, _ := table.Cell(ResAll, ExtAll)
	if graph < 0.5 {
		t.Fatalf("Wikipedia Graph recall %.3f too low", graph)
	}
	if !(graph > wn && graph > syn && google > wn && google > syn) {
		t.Fatalf("resource ordering violated: graph=%.2f google=%.2f wn=%.2f syn=%.2f", graph, google, wn, syn)
	}
	if all < graph-0.1 {
		t.Fatalf("All row (%.3f) far below best single resource (%.3f)", all, graph)
	}
	// All values are probabilities.
	for _, row := range table.Rows {
		for _, v := range row.Values {
			if v < 0 || v > 1 {
				t.Fatalf("recall %v outside [0,1]", v)
			}
		}
	}
}

func TestPrecisionTableShape(t *testing.T) {
	dr := testRun(t)
	table, err := PrecisionTable(dr, PrecisionConfig{TopK: 60})
	if err != nil {
		t.Fatal(err)
	}
	wn, _ := table.Cell(ResWordNet, ExtAll)
	google, _ := table.Cell(ResGoogle, ExtAll)
	graph, _ := table.Cell(ResWikiGraph, ExtAll)
	// Paper shape: WordNet hypernyms give the most precise hierarchies;
	// Google is the noisiest.
	if wn < google {
		t.Fatalf("WordNet precision (%.3f) below Google (%.3f)", wn, google)
	}
	if graph < 0.4 {
		t.Fatalf("Wikipedia Graph precision %.3f implausibly low", graph)
	}
	for _, row := range table.Rows {
		for _, v := range row.Values {
			if v < 0 || v > 1 {
				t.Fatalf("precision %v outside [0,1]", v)
			}
		}
	}
}

func TestPilotStudy(t *testing.T) {
	dr := testRun(t)
	res := PilotStudy(dr, 200, 9, 2)
	if len(res.Facets) == 0 {
		t.Fatal("no pilot facets")
	}
	// The 65% observation: most annotator facet terms are absent from the
	// stories.
	if res.MissingRate < 0.4 || res.MissingRate > 0.9 {
		t.Fatalf("missing rate %.2f outside plausible band around the paper's 65%%", res.MissingRate)
	}
	// Counts descending.
	for i := 1; i < len(res.Facets); i++ {
		if res.Facets[i].Count > res.Facets[i-1].Count {
			t.Fatal("pilot facets not sorted by count")
		}
	}
	if !strings.Contains(res.Format(), "Facets") {
		t.Fatal("Format output malformed")
	}
}

func TestFigure4(t *testing.T) {
	dr := testRun(t)
	gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(200))
	terms := Figure4(gt, 40)
	if len(terms) == 0 || len(terms) > 40 {
		t.Fatalf("figure 4 returned %d terms", len(terms))
	}
}

func TestFigure5BaselineIsGeneric(t *testing.T) {
	dr := testRun(t)
	terms, forest, err := Figure5(dr, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) == 0 || forest.Size() == 0 {
		t.Fatal("empty baseline")
	}
	// The baseline must be dominated by generic news vocabulary, not by
	// real facet terms — that is the paper's point.
	generic := 0
	genericSet := map[string]bool{}
	for _, w := range lang.GenericNewsWords {
		genericSet[w] = true
	}
	for _, term := range terms {
		if genericSet[term] {
			generic++
		}
	}
	if generic < len(terms)/3 {
		t.Fatalf("only %d/%d baseline terms are generic vocabulary: %v", generic, len(terms), terms)
	}
}

func TestSensitivityMonotone(t *testing.T) {
	dr := testRun(t)
	points := Sensitivity(dr, []int{50, 100, 150, 200})
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Terms < points[i-1].Terms {
			t.Fatal("term counts not monotone in sample size")
		}
	}
	if points[len(points)-1].Fraction != 1 {
		t.Fatalf("final fraction = %v, want 1", points[len(points)-1].Fraction)
	}
	// Sublinear growth: the 25% sample already finds a large share.
	if points[0].Fraction < 0.2 {
		t.Fatalf("quarter sample found only %.2f of terms", points[0].Fraction)
	}
	if FormatSensitivity(points) == "" {
		t.Fatal("empty formatting")
	}
}

func TestEfficiencyReport(t *testing.T) {
	dr := testRun(t)
	rep, err := Efficiency(dr, 50)
	if err != nil {
		t.Fatal(err)
	}
	var yahoo, ne StageCost
	for _, s := range rep.Extractors {
		switch s.Name {
		case ExtYahoo:
			yahoo = s
		case ExtNE:
			ne = s
		}
	}
	// The paper's bottleneck analysis: Yahoo's per-document cost (with
	// virtual network time) dwarfs the local extractors.
	if yahoo.PerDocTotal(rep.Docs) <= ne.PerDocTotal(rep.Docs) {
		t.Fatal("Yahoo should be the bottleneck")
	}
	if yahoo.VirtualTime == 0 {
		t.Fatal("Yahoo charged no virtual time")
	}
	if rep.LocalOnlyDocsPerSec < 100 {
		t.Fatalf("local-only throughput %.0f docs/s, paper reports >100", rep.LocalOnlyDocsPerSec)
	}
	var google StageCost
	for _, s := range rep.Resources {
		if s.Name == ResGoogle {
			google = s
		}
	}
	if google.VirtualTime == 0 || google.Queries == 0 {
		t.Fatal("Google stage not measured")
	}
	if rep.FacetSelection <= 0 || rep.HierarchyConstruction <= 0 {
		t.Fatal("analysis stages not timed")
	}
	if !strings.Contains(rep.Format(), "Facet selection") {
		t.Fatal("Format output malformed")
	}
}

func TestUserStudyShape(t *testing.T) {
	dr := testRun(t)
	res, err := UserStudy(dr, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 5 {
		t.Fatalf("%d sessions", len(res.Sessions))
	}
	// The paper's phenomena: keyword use drops across sessions, facet use
	// is substantial, satisfaction is steady and positive.
	first, last := res.Sessions[0], res.Sessions[len(res.Sessions)-1]
	if last.KeywordQueries > first.KeywordQueries {
		t.Fatalf("keyword use grew: %.2f -> %.2f", first.KeywordQueries, last.KeywordQueries)
	}
	if res.MeanSatisfaction < 1.5 || res.MeanSatisfaction > 3 {
		t.Fatalf("satisfaction %.2f outside band", res.MeanSatisfaction)
	}
	if last.FacetClicks == 0 {
		t.Fatal("no facet usage in final session")
	}
	if !strings.Contains(res.Format(), "Session") {
		t.Fatal("Format output malformed")
	}
}

func TestAblation(t *testing.T) {
	dr := testRun(t)
	res, err := Ablation(dr, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 6 {
		t.Fatalf("%d variants", len(res.Variants))
	}
	byName := map[string]AblationVariant{}
	for _, v := range res.Variants {
		byName[v.Name] = v
	}
	paper := byName["log-likelihood + both shifts (paper)"]
	noGates := byName["log-likelihood, no shift gates"]
	// The shift gates prune candidates.
	if noGates.Candidates < paper.Candidates {
		t.Fatal("removing gates reduced candidates")
	}
	// The paper's ranking should put more useful terms in the top-K than
	// raw frequency-shift ranking puts junk... at minimum it must be
	// competitive with chi-square.
	if paper.UsefulAtK <= 0 {
		t.Fatal("paper variant found nothing useful")
	}
	if res.Format() == "" {
		t.Fatal("empty formatting")
	}
}

func TestTableCellLookup(t *testing.T) {
	table := &Table{
		Cols: []string{"A", "B"},
		Rows: []TableRow{{Name: "r1", Values: []float64{1, 2}}},
	}
	if v, ok := table.Cell("r1", "B"); !ok || v != 2 {
		t.Fatalf("Cell = %v %v", v, ok)
	}
	if _, ok := table.Cell("r1", "C"); ok {
		t.Fatal("unknown column resolved")
	}
	if _, ok := table.Cell("rX", "A"); ok {
		t.Fatal("unknown row resolved")
	}
	if !strings.Contains(table.Format(), "r1") {
		t.Fatal("Format output malformed")
	}
}

// TestHierarchyBakeoff: every registered builder gets one scored row,
// and the paper's closing conjecture holds — evidence combination judges
// at least as precise as plain subsumption.
func TestHierarchyBakeoff(t *testing.T) {
	dr := testRun(t)
	bk, err := HierarchyBakeoff(context.Background(), dr, BakeoffOptions{TopK: 60})
	if err != nil {
		t.Fatal(err)
	}
	names := hierarchy.Names()
	if len(bk.Rows) != len(names) {
		t.Fatalf("%d rows for %d builders", len(bk.Rows), len(names))
	}
	byName := map[string]ForestScore{}
	for i, r := range bk.Rows {
		if r.Builder != names[i] {
			t.Fatalf("row %d is %q, want %q", i, r.Builder, names[i])
		}
		if r.Nodes == 0 {
			t.Fatalf("builder %q placed no terms", r.Builder)
		}
		if r.Judged < 0 || r.Judged > 1 {
			t.Fatalf("builder %q judged precision %v", r.Builder, r.Judged)
		}
		byName[r.Builder] = r
	}
	if ev, sub := byName["evidence"].Judged, byName["subsumption"].Judged; ev < sub {
		t.Fatalf("evidence judged %v below subsumption %v", ev, sub)
	}
	if !strings.Contains(bk.Format(), "Judged") {
		t.Fatal("Format output malformed")
	}
}

func TestRecallByDimension(t *testing.T) {
	dr := testRun(t)
	gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(200))
	d := RecallByDimension(dr, gt)
	if len(d.Rows) == 0 {
		t.Fatal("no dimensions")
	}
	var totalGT, totalFound int
	for _, r := range d.Rows {
		if r.GTTerms <= 0 || r.Found > r.GTTerms {
			t.Fatalf("row %+v inconsistent", r)
		}
		totalGT += r.GTTerms
		totalFound += r.Found
	}
	if totalGT != len(gt.Terms) {
		t.Fatalf("dimension rows cover %d terms, GT has %d", totalGT, len(gt.Terms))
	}
	agg := float64(totalFound) / float64(totalGT)
	direct := gt.Recall(dr.RunCell(ExtAll, ResAll, 1).CandidateStrings())
	if agg < direct-0.05 || agg > direct+0.05 {
		t.Fatalf("dimension aggregate %.3f far from direct recall %.3f", agg, direct)
	}
	if !strings.Contains(d.Format(), "Dimension") {
		t.Fatal("Format output malformed")
	}
}

func TestTableCSV(t *testing.T) {
	table := &Table{
		RowHeader: "Resource",
		Cols:      []string{"NE", "All"},
		Rows: []TableRow{
			{Name: "Google", Values: []float64{0.5, 0.75}},
			{Name: "A,B \"quoted\"", Values: []float64{1, 0}},
		},
	}
	csv := table.CSV()
	want := "Resource,NE,All\nGoogle,0.5000,0.7500\n\"A,B \"\"quoted\"\"\",1.0000,0.0000\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
