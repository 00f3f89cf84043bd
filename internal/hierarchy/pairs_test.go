package hierarchy

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obsv"
)

// sweepCorpus builds a deterministic pseudo-random collection with the
// topical structure the pruning exploits: 16 disjoint topics of 3 terms
// each over 240 documents. Every document draws terms from one topic
// only (plus a corpus-wide "common" term in a third of the documents),
// so cross-topic pairs never co-occur and the candidate generator skips
// the bulk of the all-pairs space. Two degenerate rows ride along — a
// term that never occurs and one that occurs once.
func sweepCorpus() (terms []string, docTerms [][]string) {
	const topics, perTopic = 16, 3
	for t := 0; t < topics; t++ {
		for i := 0; i < perTopic; i++ {
			terms = append(terms, fmt.Sprintf("t%d%c", t, 'a'+i))
		}
	}
	terms = append(terms, "common", "never", "once")
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		// splitmix64 step: deterministic, seedless, good enough to
		// scatter term assignments.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for d := 0; d < 240; d++ {
		topic := d % topics
		var row []string
		for i := 0; i < perTopic; i++ {
			// Term i of the topic appears with probability ~1/(1+i): the
			// first term anchors the topic, later ones nest inside it.
			if next()%uint64(1+i) == 0 {
				row = append(row, terms[topic*perTopic+i])
			}
		}
		if d%3 == 0 {
			row = append(row, "common")
		}
		docTerms = append(docTerms, row)
	}
	docTerms[7] = append(docTerms[7], "once")
	return terms, docTerms
}

// sweepConfigs enumerates the configurations the differential test runs
// every builder under: both worker counts the invariants test uses, and
// for the evidence builder a threshold that actually arms its pruning
// gate (threshold 0.6 > maxZeroCoScore 0.5 with one unit-weight source).
func sweepConfigs(workers int) BuildConfig {
	cfg := fixtureConfig(workers)
	cfg.Metrics = obsv.NewRegistry()
	return cfg
}

// ceilingConfig is sweepConfigs with the evidence threshold at the
// taxonomy ceiling (maxZeroCoScore 0.5 with one unit-weight source) and
// a source that also endorses news → election, a pair that never
// co-occurs in the fixture. Taxonomy evidence alone attaches election,
// so the evidence sweep must stay dense.
func ceilingConfig(workers int) BuildConfig {
	cfg := sweepConfigs(workers)
	cfg.Evidence.Threshold = 0.5
	cfg.Evidence.Sources = []TaxonomicEvidence{EvidenceFunc{
		EvidenceName: "ceiling",
		Fn: func(parent, child string) float64 {
			if (parent == "france" && child == "paris") || (parent == "news" && child == "election") {
				return 1
			}
			return 0
		},
	}}
	return cfg
}

// coOnceCorpus is a collection whose agglomerative forest rests on a pair
// that co-occurs once: apple and pear share one of their three documents
// (Jaccard 1/3, above the default 0.25 merge floor).
func coOnceCorpus() (terms []string, docTerms [][]string) {
	return []string{"apple", "pear", "plum"}, [][]string{
		{"apple", "pear"},
		{"apple"},
		{"pear"},
		{"plum"},
		{"plum"},
	}
}

// TestPrunedSweepEquivalence is the differential wall for the tentpole:
// every registered builder must render a byte-identical forest whether
// the pairwise sweep runs pruned (the default, candidate pairs from the
// pairIndex) or dense (the pre-pruning all-pairs reference in
// reference_test.go), at 1 and 8 workers, on the small fixture, a larger
// skewed corpus, the fixture with the evidence threshold at the taxonomy
// ceiling, and a corpus whose clustering rests on a pair that co-occurs
// once. Each of the last two names the edge it exists for. CI runs this
// under -race.
func TestPrunedSweepEquivalence(t *testing.T) {
	type corpus struct {
		label    string
		terms    []string
		docTerms [][]string
		config   func(workers int) BuildConfig
		// edge is builder, child, parent: an edge the input must produce.
		edge [3]string
	}
	ft, fd := builderFixture()
	st, sd := sweepCorpus()
	ct, cd := coOnceCorpus()
	corpora := []corpus{
		{label: "fixture", terms: ft, docTerms: fd, config: sweepConfigs},
		{label: "skewed", terms: st, docTerms: sd, config: sweepConfigs},
		{label: "evidence-at-ceiling", terms: ft, docTerms: fd, config: ceilingConfig, edge: [3]string{"evidence", "election", "news"}},
		{label: "co-once", terms: ct, docTerms: cd, config: sweepConfigs, edge: [3]string{"agglomerative", "pear", "apple"}},
	}

	for _, name := range Names() {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		for _, c := range corpora {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, c.label, workers), func(t *testing.T) {
					pruned, err := b.Build(context.Background(), c.terms, c.docTerms, c.config(workers))
					if err != nil {
						t.Fatal(err)
					}
					checkForestInvariants(t, pruned)
					if c.edge[0] == name {
						if node, ok := pruned.Find(c.edge[1]); !ok || node.Parent == nil || node.Parent.Term != c.edge[2] {
							t.Errorf("%s is not under %s:\n%s", c.edge[1], c.edge[2], FormatTree(pruned))
						}
					}

					dense, err := denseBuild(context.Background(), name, c.terms, c.docTerms, c.config(workers))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := FormatTree(pruned), FormatTree(dense); got != want {
						t.Errorf("pruned sweep diverges from dense reference:\n--- pruned ---\n%s\n--- dense ---\n%s", got, want)
					}
				})
			}
		}
	}
}

// TestPrunedSweepCounters pins the counter semantics the stagereport
// experiment relies on: candidate+skipped reconstructs the dense
// iteration space, evaluated never exceeds candidate, and on the skewed
// corpus the subsumption sweep evaluates an order of magnitude fewer
// pairs than the all-pairs count.
func TestPrunedSweepCounters(t *testing.T) {
	terms, docTerms := sweepCorpus()
	reg := obsv.NewRegistry()
	cfg := BuildConfig{Workers: 4, Metrics: reg}
	b, _ := Lookup("subsumption")
	if _, err := b.Build(context.Background(), terms, docTerms, cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	candidate := snap.Counters["hierarchy.pairs.candidate"]
	evaluated := snap.Counters["hierarchy.pairs.evaluated"]
	skipped := snap.Counters["hierarchy.pairs.skipped"]
	n := snap.Gauges["hierarchy.sweep.terms"]
	if n == 0 {
		t.Fatal("hierarchy.sweep.terms gauge not set")
	}
	if dense := n * (n - 1); candidate+skipped != dense {
		t.Errorf("candidate(%d)+skipped(%d) = %d, want dense iteration count %d", candidate, skipped, candidate+skipped, dense)
	}
	if evaluated > candidate {
		t.Errorf("evaluated %d exceeds candidate %d", evaluated, candidate)
	}
	if allPairs := n * (n - 1) / 2; evaluated*10 > allPairs {
		t.Errorf("evaluated %d pairs, want >=10x below all-pairs %d on the skewed corpus", evaluated, allPairs)
	}
}

// TestAgglomerativeDegeneratePostings is the satellite fix's regression
// test: with the MinDF floor disabled, terms with empty or singleton
// posting lists must not inflate the similarity matrix — they surface as
// roots (empty lists can never merge; singletons only if they co-occur)
// and the sparse path stays byte-identical to the dense reference.
func TestAgglomerativeDegeneratePostings(t *testing.T) {
	terms := []string{"a", "b", "empty1", "empty2", "solo"}
	docTerms := [][]string{
		{"a", "b"},
		{"a", "b"},
		{"a"},
		{"solo"},
		{},
	}
	b, _ := Lookup("agglomerative")
	cfg := BuildConfig{MinDF: -1, Workers: 2} // negative floor keeps zero-DF terms alive
	pruned, err := b.Build(context.Background(), terms, docTerms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkForestInvariants(t, pruned)
	for _, term := range []string{"empty1", "empty2", "solo"} {
		node, ok := pruned.Find(term)
		if !ok {
			t.Fatalf("degenerate term %q missing from forest", term)
		}
		if node.Parent != nil || len(node.Children) != 0 {
			t.Errorf("degenerate term %q clustered (parent=%v, %d children), want isolated root", term, node.Parent, len(node.Children))
		}
	}
	if node, ok := pruned.Find("b"); !ok || node.Parent == nil || node.Parent.Term != "a" {
		t.Errorf("co-occurring pair did not cluster: b's parent = %v", node)
	}

	dense, err := denseBuild(context.Background(), "agglomerative", terms, docTerms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTree(pruned), FormatTree(dense); got != want {
		t.Errorf("degenerate corpus: sparse diverges from dense:\n--- sparse ---\n%s\n--- dense ---\n%s", got, want)
	}
}

// FuzzPairStream cross-checks the candidate-pair generator against the
// naive all-pairs AndCount loop on arbitrary collections: forCandidates
// must yield exactly the partners with co-occurrence >= minCo — never
// dropping a qualifying pair, never yielding a duplicate or self-pair —
// in ascending slot order with exact counts, and the scratch must reset
// cleanly between terms (one scratch serves the whole sweep).
func FuzzPairStream(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x03, 0x00, 0x01, 0x00}, uint8(1), uint8(2))
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 0xf0, 0x00, 0x00, 0x00}, uint8(2), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0x01, 0x80, 0x01, 0x80, 0x03, 0xc0, 0xaa, 0x55}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, minCoRaw, minDFRaw uint8) {
		terms, docTerms := decodeFuzzCollection(data)
		minCo := int(minCoRaw%4) + 1            // [1, 4]
		minDF := []int{-1, 1, 2, 3}[minDFRaw%4] // include the no-floor case
		st := newTermStats(terms, docTerms, minDF)
		ix := newPairIndex(st)
		sc := ix.newScratch()
		for yi := range st.alive {
			prev := -1
			got := map[int]int{}
			ix.forCandidates(yi, sc, minCo, func(xi, co int) {
				if xi == yi {
					t.Fatalf("yi=%d: self-pair yielded", yi)
				}
				if xi <= prev {
					t.Fatalf("yi=%d: partner %d after %d — not ascending or duplicate", yi, xi, prev)
				}
				prev = xi
				got[xi] = co
			})
			for xi := range st.alive {
				if xi == yi {
					continue
				}
				want := st.sets[st.alive[xi]].AndCount(st.sets[st.alive[yi]])
				switch co, yielded := got[xi], want >= minCo; {
				case yielded && co != want:
					t.Fatalf("yi=%d xi=%d: co %d (want %d) with minCo %d, yielded=%v", yi, xi, co, want, minCo, co != 0)
				case !yielded && co != 0:
					t.Fatalf("yi=%d xi=%d: yielded co %d below minCo %d", yi, xi, co, minCo)
				}
			}
		}
		// The scratch must end every sweep fully zeroed.
		for i, c := range sc.co {
			if c != 0 {
				t.Fatalf("scratch co[%d] = %d after sweep, want 0", i, c)
			}
		}
		if len(sc.touched) != 0 {
			t.Fatalf("scratch touched list not reset: %v", sc.touched)
		}
	})
}
