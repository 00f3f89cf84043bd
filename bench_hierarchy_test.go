package facet

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestBenchHierarchySchema smoke-parses BENCH_hierarchy.json when present
// (CI regenerates it with `experiments -run hierarchybakeoff` and then
// runs this), so a drift in the bake-off writer fails loudly rather than
// silently producing an unparseable trajectory.
func TestBenchHierarchySchema(t *testing.T) {
	data, err := os.ReadFile("BENCH_hierarchy.json")
	if err != nil {
		if os.IsNotExist(err) {
			t.Skip("BENCH_hierarchy.json not present (run `experiments -run hierarchybakeoff` to produce it)")
		}
		t.Fatal(err)
	}
	var got eval.BakeoffBench
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("BENCH_hierarchy.json does not parse: %v", err)
	}
	if got.Benchmark != "hierarchybakeoff" {
		t.Fatalf("benchmark = %q, want hierarchybakeoff", got.Benchmark)
	}
	if got.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs = %d", got.GOMAXPROCS)
	}
	if got.Docs <= 0 || got.TopK <= 0 {
		t.Fatalf("docs = %d, top_k = %d", got.Docs, got.TopK)
	}
	if len(got.Points) < 4 {
		t.Fatalf("%d points, want one per registered builder (>= 4)", len(got.Points))
	}
	// A point without the judged precision would read as 0.
	if n := strings.Count(string(data), `"judged":`); n != len(got.Points) {
		t.Fatalf("%d of %d points carry judged", n, len(got.Points))
	}
	seen := map[string]bool{}
	for _, p := range got.Points {
		if p.Builder == "" || seen[p.Builder] {
			t.Fatalf("malformed or duplicate builder in point %+v", p)
		}
		seen[p.Builder] = true
		if p.Nodes < 0 || p.Roots < 0 || p.Millis < 0 {
			t.Fatalf("malformed point %+v", p)
		}
		for _, v := range []float64{p.OrphanRate, p.Precision, p.Recall, p.Judged} {
			if v < 0 || v > 1 {
				t.Fatalf("rate outside [0,1] in point %+v", p)
			}
		}
	}
	for _, want := range []string{"subsumption", "evidence", "treemin", "agglomerative"} {
		if !seen[want] {
			t.Fatalf("builder %q missing from trajectory", want)
		}
	}
}
