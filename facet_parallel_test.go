package facet

import (
	"reflect"
	"testing"
)

// TestParallelSequentialEquivalence is the differential harness for the
// sharded pipeline: the same synthetic news corpus is processed with
// Workers=1 (the original sequential path) and Workers=8, and every
// observable output must be byte-for-byte identical — facet terms and
// their statistics, the full candidate ranking, the per-document
// important-term and context rows, and the rendered hierarchy. CI runs
// this under -race, so it doubles as the end-to-end race regression
// test for the worker pools, the shared ResourceCache, and the DF-table
// shard merge.
func TestParallelSequentialEquivalence(t *testing.T) {
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 150, 43)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (*Result, *Hierarchy) {
		t.Helper()
		sys, err := NewSystem(env, Options{TopK: 80, Workers: workers})
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
		h, err := res.BuildHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		return res, h
	}

	seqRes, seqH := run(1)
	parRes, parH := run(8)

	if len(seqRes.Facets) == 0 {
		t.Fatal("sequential run extracted no facets; the differential test is vacuous")
	}
	if !reflect.DeepEqual(seqRes.Facets, parRes.Facets) {
		t.Errorf("facet terms diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Candidates, parRes.inner.Candidates) {
		t.Errorf("candidate ranking diverges between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Important, parRes.inner.Important) {
		t.Errorf("per-document important terms diverge between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqRes.inner.Context, parRes.inner.Context) {
		t.Errorf("per-document context rows diverge between Workers=1 and Workers=8")
	}
	if seq, par := seqH.FormatTree(), parH.FormatTree(); seq != par {
		t.Errorf("hierarchy diverges between Workers=1 and Workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}

	// The evidence-combination builder shards its pairwise evidence
	// counting too; it must be just as deterministic.
	seqEv, err := seqRes.BuildHierarchyWith("evidence")
	if err != nil {
		t.Fatal(err)
	}
	parEv, err := parRes.BuildHierarchyWith("evidence")
	if err != nil {
		t.Fatal(err)
	}
	if seq, par := seqEv.FormatTree(), parEv.FormatTree(); seq != par {
		t.Errorf("evidence hierarchy diverges between Workers=1 and Workers=8")
	}
}
