package facet

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestEnvConfigScaleValidation(t *testing.T) {
	for _, scale := range []float64{-1, -0.01, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewSimulatedEnvironment(EnvConfig{Scale: scale}); err == nil {
			t.Errorf("Scale %v accepted", scale)
		}
	}
	// Zero (default) and positive scales remain valid.
	for _, scale := range []float64{0, 0.5, 2} {
		if _, err := NewSimulatedEnvironment(EnvConfig{Seed: 3, Scale: scale}); err != nil {
			t.Errorf("Scale %v rejected: %v", scale, err)
		}
	}
}

// TestExtractFacetsContextCancellation: a canceled context aborts the
// pipeline with ctx.Err() instead of running the remaining stages.
func TestExtractFacetsContextCancellation(t *testing.T) {
	sys := loadedSystem(t, 150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := sys.ExtractFacetsContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	// An expired deadline aborts the same way.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := sys.ExtractFacetsContext(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExtractFacetsCanceledBeforeCalibration: a canceled extraction
// stops before the Yahoo-style extractor calibrates its background table,
// which would build (and intern) every document's term row first.
func TestExtractFacetsCanceledBeforeCalibration(t *testing.T) {
	sys := loadedSystem(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ExtractFacetsContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := sys.corpus.Dict().Len(); n != 0 {
		t.Fatalf("canceled extraction interned %d terms, want none", n)
	}
}

// countingExtractor marks nothing important and counts its calls.
type countingExtractor struct{ calls atomic.Int64 }

func (e *countingExtractor) Name() string { return "Counting" }

func (e *countingExtractor) Extract(string) []string {
	e.calls.Add(1)
	return nil
}

// TestDistributionalModelBuiltOnce: with the corpus-only model selected
// both as a resource and as the fallback, one extraction builds it once,
// so each extractor sees every document twice (the model's Step 1 and
// the pipeline's). The build runs under the extraction's ctx: a canceled
// ctx returns before any document is extracted.
func TestDistributionalModelBuiltOnce(t *testing.T) {
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingExtractor{}
	sys, err := NewSystem(env, Options{
		Resources:       []string{"Distributional"},
		CorpusFallback:  true,
		ExtraExtractors: []TermExtractor{counter},
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	if _, err := sys.ExtractFacets(); err != nil {
		t.Fatal(err)
	}
	if got, want := counter.calls.Load(), int64(2*len(docs)); got != want {
		t.Fatalf("extractor called %d times for %d documents, want %d", got, len(docs), want)
	}

	counter.calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ExtractFacetsContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := counter.calls.Load(); got != 0 {
		t.Fatalf("canceled extraction called the extractor %d times, want 0", got)
	}
}

// TestCoreSeamsShareDistributionalModel: facetserve's live wiring asks
// for the resources and then for the fallback. With the model selected
// as both, one Step 1 builds it, and the fallback is the resource's
// instance. Add invalidates it.
func TestCoreSeamsShareDistributionalModel(t *testing.T) {
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingExtractor{}
	sys, err := NewSystem(env, Options{
		Resources:       []string{"Distributional"},
		CorpusFallback:  true,
		ExtraExtractors: []TermExtractor{counter},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	resources := sys.CoreResources()
	fallback := sys.CoreFallback()
	if got, want := counter.calls.Load(), int64(len(docs)); got != want {
		t.Fatalf("extractor called %d times for %d documents, want %d", got, len(docs), want)
	}
	if len(resources) != 1 || fallback == nil || resources[0] != fallback {
		t.Fatalf("fallback %v is not the resource of %v", fallback, resources)
	}

	sys.Add(docs[0])
	if sys.CoreFallback() == fallback {
		t.Fatal("the model built before Add outlived it")
	}
	if got, want := counter.calls.Load(), int64(2*len(docs)+1); got != want {
		t.Fatalf("extractor called %d times after Add, want %d", got, want)
	}
}

// cancelingResource answers every lookup with nothing. Once armed with
// a cancel function it counts its lookups and cancels on each.
type cancelingResource struct {
	cancel context.CancelFunc
	calls  int
}

func (r *cancelingResource) Name() string { return "Canceling" }

func (r *cancelingResource) Context(string) []string {
	r.calls++
	if r.cancel != nil {
		r.cancel()
	}
	return nil
}

// TestBuildHierarchyContextCancelsAssignment: a context canceled during
// document assignment stops BuildHierarchyWithContext with
// context.Canceled after a document's worth of lookups, not a full pass.
func TestBuildHierarchyContextCancelsAssignment(t *testing.T) {
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	canceling := &cancelingResource{}
	sys, err := NewSystem(env, Options{TopK: 100, Workers: 1, ExtraResources: []ContextResource{canceling}})
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
	// Assignment repeats Step 2's lookups, one per distinct important term.
	fullPass := canceling.calls
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling.cancel, canceling.calls = cancel, 0
	if _, err := res.BuildHierarchyWithContext(ctx, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if canceling.calls == 0 || canceling.calls*10 > fullPass {
		t.Fatalf("canceled assignment made %d lookups; a full pass makes %d", canceling.calls, fullPass)
	}
}

// TestStageReport: the result carries wall-clock timing for every
// pipeline stage in execution order, and BuildHierarchy appends its own
// stage.
func TestStageReport(t *testing.T) {
	sys := loadedSystem(t, 120)
	res, err := sys.ExtractFacets()
	if err != nil {
		t.Fatal(err)
	}
	stages := res.StageReport()
	want := []string{"identify_important", "derive_context", "analyze"}
	if len(stages) != len(want) {
		t.Fatalf("StageReport = %+v, want stages %v", stages, want)
	}
	for i, st := range stages {
		if st.Stage != want[i] {
			t.Fatalf("stage[%d] = %q, want %q", i, st.Stage, want[i])
		}
		if st.Calls != 1 || st.Total < 0 {
			t.Fatalf("stage %q has calls=%d total=%v", st.Stage, st.Calls, st.Total)
		}
	}
	if _, err := res.BuildHierarchy(); err != nil {
		t.Fatal(err)
	}
	stages = res.StageReport()
	if len(stages) != 4 || stages[3].Stage != "build_hierarchy" {
		t.Fatalf("after BuildHierarchy StageReport = %+v, want build_hierarchy appended", stages)
	}
}
