package hierarchy

import (
	"context"
	"testing"
)

// builderFixture is a small corpus with clear nesting structure: baseball
// appears only inside sports documents, paris only inside france
// documents, and "rare" occurs once (below the default MinDF floor).
func builderFixture() (terms []string, docTerms [][]string) {
	terms = []string{"news", "sports", "baseball", "france", "paris", "election", "rare", "sports"} // dup on purpose
	docTerms = [][]string{
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports"},
		{"news", "sports"},
		{"news", "france", "paris"},
		{"news", "france", "paris"},
		{"news", "france", "paris"},
		{"news", "france"},
		{"news", "france"},
		{"news"},
		{"election"},
		{"election"},
		{"election"},
		{},
		{},
		{},
		{},
		{"rare"},
	}
	return terms, docTerms
}

// fixtureConfig exercises every nested option so taxonomy-backed builders
// get real inputs: an evidence source that endorses france→paris and
// hypernym chains for the concrete terms.
func fixtureConfig(workers int) BuildConfig {
	return BuildConfig{
		MinDF:   2,
		Workers: workers,
		Evidence: EvidenceOptions{
			Sources: []TaxonomicEvidence{EvidenceFunc{
				EvidenceName: "fixture",
				Fn: func(parent, child string) float64 {
					if parent == "france" && child == "paris" {
						return 1
					}
					return 0
				},
			}},
			Threshold: 0.6,
		},
		Chains: ChainFunc(func(term string) []string {
			switch term {
			case "baseball":
				return []string{"sports"}
			case "paris":
				return []string{"france", "europe"}
			case "election":
				return []string{"politics", "news"}
			}
			return nil
		}),
	}
}

// TestRegistry: the four stock builders are registered, Names is sorted,
// and Lookup round-trips every name to a builder that claims it.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names() = %v, want at least 4 builders", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, want := range []string{"agglomerative", "evidence", "subsumption", "treemin"} {
		b, ok := Lookup(want)
		if !ok {
			t.Fatalf("Lookup(%q) missing", want)
		}
		if b.Name() != want {
			t.Fatalf("Lookup(%q).Name() = %q", want, b.Name())
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown builder succeeded")
	}
}

type dummyBuilder struct{ name string }

func (d dummyBuilder) Name() string { return d.name }
func (d dummyBuilder) Build(context.Context, []string, [][]string, BuildConfig) (*Forest, error) {
	return &Forest{index: map[string]*Node{}}, nil
}

// TestRegisterPanics: nil builders, empty names, and duplicate names are
// programmer errors and panic at registration time.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", label)
			}
		}()
		fn()
	}
	mustPanic("nil", func() { Register(nil) })
	mustPanic("empty name", func() { Register(dummyBuilder{}) })
	mustPanic("duplicate", func() { Register(dummyBuilder{name: "subsumption"}) })
}

// TestBuilderInvariants runs the builder-agnostic contract over every
// registered strategy: structurally sound forests, every input term
// placed or dropped only for an explainable reason (df below the floor),
// byte-identical output at 1 and 8 workers, and honored cancellation.
// CI runs this test under -race so the worker-sharded sweeps are checked
// for data races, not just determinism.
func TestBuilderInvariants(t *testing.T) {
	terms, docTerms := builderFixture()
	df := map[string]int{}
	for _, row := range docTerms {
		seen := map[string]bool{}
		for _, term := range row {
			if !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, ok := Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
			cfg := fixtureConfig(1)
			forest, err := b.Build(context.Background(), terms, docTerms, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkForestInvariants(t, forest)

			// Every distinct input term is either in the forest or sat
			// below the df floor (taxonomy-only builders place everything).
			for _, term := range terms {
				if _, placed := forest.Find(term); !placed && df[term] >= cfg.MinDF {
					t.Errorf("term %q (df %d) missing from %s forest with no explanation", term, df[term], name)
				}
			}

			// Determinism across worker counts.
			sequential := FormatTree(forest)
			parallelForest, err := b.Build(context.Background(), terms, docTerms, fixtureConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatTree(parallelForest); got != sequential {
				t.Errorf("%s: Workers=8 forest differs from Workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s", name, sequential, got)
			}

			// Pruned-sweep equivalence: the posting-list-pruned sweep
			// (the default) must render the same forest as the dense
			// all-pairs reference. Registered builders inherit this
			// check, so a new strategy cannot ship a pruning shortcut
			// that silently drops pairs. (TestPrunedSweepEquivalence
			// repeats this on a larger skewed corpus.)
			denseForest, err := denseBuild(context.Background(), name, terms, docTerms, fixtureConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatTree(denseForest); got != sequential {
				t.Errorf("%s: dense reference sweep differs from pruned:\n--- pruned ---\n%s\n--- dense ---\n%s", name, sequential, got)
			}

			// A canceled context aborts the build with ctx's error, never a
			// partial forest.
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if f, err := b.Build(canceled, terms, docTerms, cfg); err == nil {
				t.Errorf("%s: canceled build returned forest %v with nil error", name, f)
			}
		})
	}
}

// TestBuilderZeroConfig: BuildConfig{} is documented as valid for every
// builder — defaults kick in and the build succeeds.
func TestBuilderZeroConfig(t *testing.T) {
	terms, docTerms := builderFixture()
	for _, name := range Names() {
		b, _ := Lookup(name)
		forest, err := b.Build(context.Background(), terms, docTerms, BuildConfig{})
		if err != nil {
			t.Fatalf("%s: zero-config build failed: %v", name, err)
		}
		checkForestInvariants(t, forest)
	}
}
