package hierarchy

import (
	"fmt"
	"testing"
)

// fuzzTerms is the closed vocabulary the subsumption fuzzer draws from.
var fuzzTerms = [16]string{
	"news", "sports", "politics", "france", "paris", "chirac", "iraq",
	"war", "trial", "court", "art", "music", "opera", "film", "europe", "asia",
}

// decodeFuzzCollection turns fuzz bytes into (terms, docTerms): two
// bytes per document form a 16-bit term-presence mask.
func decodeFuzzCollection(data []byte) ([]string, [][]string) {
	terms := fuzzTerms[:]
	var docTerms [][]string
	const maxDocs = 96
	for d := 0; d+1 < len(data) && len(docTerms) < maxDocs; d += 2 {
		mask := uint16(data[d]) | uint16(data[d+1])<<8
		var row []string
		for b := 0; b < 16; b++ {
			if mask&(1<<b) != 0 {
				row = append(row, fuzzTerms[b])
			}
		}
		docTerms = append(docTerms, row)
	}
	return terms, docTerms
}

// checkForestInvariants verifies structural soundness of a built forest:
// acyclic parent chains, every indexed node reachable from a root
// exactly once, and Parent/Children pointers mutually consistent.
func checkForestInvariants(t *testing.T, f *Forest) {
	t.Helper()
	size := f.Size()
	visited := map[*Node]bool{}
	f.Walk(func(n *Node, depth int) {
		if visited[n] {
			t.Fatalf("node %q visited twice — forest has a cycle or shared subtree", n.Term)
		}
		visited[n] = true
		if depth > size {
			t.Fatalf("node %q at depth %d exceeds forest size %d — parent cycle", n.Term, depth, size)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %q of %q has Parent %v", c.Term, n.Term, c.Parent)
			}
		}
	})
	if len(visited) != size {
		t.Fatalf("walk reached %d nodes, index holds %d — unreachable (cyclic) nodes exist", len(visited), size)
	}
	for _, r := range f.Roots {
		if r.Parent != nil {
			t.Fatalf("root %q has a parent %q", r.Term, r.Parent.Term)
		}
	}
	// Independent acyclicity check through the Parent pointers themselves.
	for term, start := range f.index {
		steps := 0
		for n := start; n.Parent != nil; n = n.Parent {
			steps++
			if steps > size {
				t.Fatalf("parent chain from %q does not terminate", term)
			}
		}
	}
}

// checkSubsumptionPredicate recomputes from docTerms alone what the
// subsumption builder must produce and compares it with the forest. The
// forest holds exactly the terms with df ≥ minDF. An edge y→x (x the
// parent) needs P(x|y) = co/df(y) ≥ θ, P(y|x) = co/df(x) < 1,
// df(x) > df(y) and df(y) ≤ ⌊maxChildFrac·N⌋, and no other qualifying
// term may be more specific (smaller df, then higher P(x|y), then term
// text). A root has no qualifying term at all.
func checkSubsumptionPredicate(t *testing.T, f *Forest, terms []string, docTerms [][]string, theta float64, minDF int, maxChildFrac float64) {
	t.Helper()
	isTerm := map[string]bool{}
	for _, term := range terms {
		isTerm[term] = true
	}
	df := map[string]int{}
	co := map[[2]string]int{}
	for _, row := range docTerms {
		seen := map[string]bool{}
		for _, term := range row {
			if isTerm[term] && !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
		for a := range seen {
			for b := range seen {
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
	if f.Size() != len(alive) {
		t.Fatalf("forest has %d terms, %d have df >= %d", f.Size(), len(alive), minDF)
	}
	maxChildDF := int(maxChildFrac * float64(len(docTerms)))
	subsumes := func(x, y string) (float64, bool) {
		c := co[[2]string{x, y}]
		pxy := float64(c) / float64(df[y])
		return pxy, x != y && df[x] > df[y] && df[y] <= maxChildDF &&
			pxy >= theta && float64(c)/float64(df[x]) < 1
	}
	for _, y := range alive {
		node, ok := f.Find(y)
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
			t.Fatalf("%q is a root, but %q subsumes it", y, best)
		case node.Parent != nil:
			x := node.Parent.Term
			if _, ok := subsumes(x, y); !ok {
				t.Fatalf("edge %q→%q fails the predicate (co %d, df %d/%d, θ %v)",
					y, x, co[[2]string{x, y}], df[y], df[x], theta)
			}
			if x != best {
				t.Fatalf("%q sits under %q, but %q is the most specific subsumer", y, x, best)
			}
		}
	}
}

// FuzzSubsumption builds subsumption forests over arbitrary document
// collections, thresholds, and worker counts, checking that construction
// never fails or panics, the result is a true forest (acyclic, every
// term reachable exactly once), every edge follows the subsumption
// predicate (checkSubsumptionPredicate), and the sharded pairwise sweep
// renders the identical tree to the sequential one.
func FuzzSubsumption(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x03, 0x00, 0x01, 0x00, 0x07, 0x00}, uint8(80), uint8(4))
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 0xf0, 0x00}, uint8(50), uint8(0))
	f.Add([]byte{}, uint8(100), uint8(2))
	f.Add([]byte{0x01, 0x80, 0x01, 0x80, 0x03, 0xc0}, uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, thresholdPct, workers uint8) {
		terms, docTerms := decodeFuzzCollection(data)
		threshold := float64(thresholdPct%100+1) / 100 // (0, 1]
		cfg := BuildConfig{Threshold: threshold, Workers: int(workers % 8)}
		forest, err := buildNamed("subsumption", terms, docTerms, cfg)
		if err != nil {
			t.Fatalf("subsumption(threshold=%v): %v", threshold, err)
		}
		checkForestInvariants(t, forest)
		checkSubsumptionPredicate(t, forest, terms, docTerms, threshold, 2, 0.6)

		seqCfg := cfg
		seqCfg.Workers = 1
		seq, err := buildNamed("subsumption", terms, docTerms, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FormatTree(forest), FormatTree(seq); got != want {
			t.Fatalf("workers=%d forest diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s",
				cfg.Workers, got, want)
		}
	})
}

// TestSubsumptionWorkersEquivalence pins the worker-count determinism of
// the pairwise sweep on a fixed skewed collection, without the fuzzer.
func TestSubsumptionWorkersEquivalence(t *testing.T) {
	var docTerms [][]string
	for i := 0; i < 60; i++ {
		row := []string{"news"}
		if i%2 == 0 {
			row = append(row, "sports")
		}
		if i%4 == 0 {
			row = append(row, "football", fmt.Sprintf("team%d", i%8))
		}
		if i%3 == 0 {
			row = append(row, "politics")
		}
		if i%6 == 0 {
			row = append(row, "election")
		}
		docTerms = append(docTerms, row)
	}
	terms := []string{"news", "sports", "football", "politics", "election",
		"team0", "team4", "team1", "team2", "team3"}
	seq, err := buildNamed("subsumption", terms, docTerms, BuildConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5, 16} {
		par, err := buildNamed("subsumption", terms, docTerms, BuildConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FormatTree(par), FormatTree(seq); got != want {
			t.Fatalf("workers=%d forest diverges:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
