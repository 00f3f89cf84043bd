package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/obsv"
	"repro/internal/textdb"
)

// batchDocs is the paper's SNYT size: one pass indexes this many
// documents and runs the whole offline path over them.
const batchDocs = 1000

// batchInput is what batch_extract sets up: the environment and the
// corpus, nothing else — each pass builds its own System.
type batchInput struct {
	env  *facet.Environment
	docs []facet.Document
}

// passOutput is what a pass produces that the checks compare: the
// ranking and the indented tree.
type passOutput struct {
	ranking string
	tree    string
}

// passTimes are the two end-to-end paths one facade pass times.
type passTimes struct {
	// ranked is corpus → ranked facets: a fresh System over the corpus
	// and ExtractFacets.
	ranked time.Duration
	// total is the whole pass: ranked facets, then BuildHierarchy and
	// BrowseEngine.
	total time.Duration
}

// facadePass runs one closed-loop pass through the public facade exactly
// as a library user would: a fresh System over the corpus, then
// ExtractFacets → BuildHierarchy → BrowseEngine.
func facadePass(in batchInput, workers int) (passTimes, passOutput, error) {
	start := time.Now()
	sys, err := facet.NewSystem(in.env, facet.Options{Workers: workers})
	if err != nil {
		return passTimes{}, passOutput{}, err
	}
	for _, d := range in.docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		return passTimes{}, passOutput{}, err
	}
	ranked := time.Since(start)
	h, err := res.BuildHierarchy()
	if err != nil {
		return passTimes{}, passOutput{}, err
	}
	if _, err := res.BrowseEngine(h); err != nil {
		return passTimes{}, passOutput{}, err
	}
	t := passTimes{ranked: ranked, total: time.Since(start)}
	return t, passOutput{ranking: strings.Join(res.Terms(), "\n"), tree: h.FormatTree()}, nil
}

func setupBatch(seed uint64) (batchInput, error) {
	env, err := newEnv()
	if err != nil {
		return batchInput{}, err
	}
	docs, err := generateCorpus(env, "SNYT", batchDocs, seed)
	if err != nil {
		return batchInput{}, err
	}
	return batchInput{env: env, docs: docs}, nil
}

func runBatch(cfg runConfig) (*outcome, error) {
	return measured(cfg, func() (batchInput, error) { return setupBatch(cfg.seed) }, func(batchInput) {},
		func(in batchInput, o *outcome) error {
			if cfg.trace {
				return tracedBatch(cfg, in, o)
			}
			return untracedBatch(cfg, in, o)
		})
}

// untracedBatch runs passes back to back for the run's length. The heap
// is collected between passes, outside the timing, so every pass starts
// from the same state.
func untracedBatch(cfg runConfig, in batchInput, o *outcome) error {
	var totals, ranked []float64
	var first passOutput
	var cpu time.Duration
	steal := startSteal()
	deadline := time.Now().Add(cfg.seconds)
	for len(totals) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		c0 := cpuTime()
		t, out, err := facadePass(in, 1)
		cpu += cpuTime() - c0
		o.attempted++
		if err != nil {
			o.fail(1, fmt.Errorf("pass %d: %w", o.attempted, err))
			continue
		}
		totals = append(totals, t.total.Seconds())
		ranked = append(ranked, t.ranked.Seconds())
		cfg.logf("pass %d: %.3f s, ranked facets after %.3f s", o.attempted, t.total.Seconds(), t.ranked.Seconds())
		if len(totals) == 1 {
			first = out
		} else if out != first {
			o.failed++
			o.check(fmt.Errorf("pass %d: ranking or tree differs from pass 1", o.attempted))
		}
	}
	if len(totals) == 0 {
		return fmt.Errorf("no pass completed")
	}
	med := median(totals)
	o.metrics["ops_per_s"] = float64(batchDocs) / med
	o.metrics["p50_ms"] = med * 1000
	o.metrics["fresh_p50_ms"] = median(ranked) * 1000
	o.metrics["cpu_ms_per_op"] = ms(cpu) / float64(len(totals)*batchDocs)
	o.noise["steal_share"] = steal.share()
	o.noise["passes"] = float64(len(totals))
	o.noise["pass_s_min"] = minOf(totals)
	o.noise["pass_s_max"] = maxOf(totals)
	return nil
}

// maxUnaccounted is the largest share of the facade pass the traced
// replay's layers may leave unaccounted; beyond it the per-layer figures
// no longer describe the pass users run, and the traced run fails its
// check.
const maxUnaccounted = 0.10

// coveragePairs is how many times a traced batch run runs a facade pass
// and a traced replay side by side for trace.unaccounted_share. On a
// shared 2-vCPU host the speed of the machine changes within seconds:
// in one run the same pass took 4.5 to 6.8 s, and a replay and the
// facade pass run one after the other differed by 19% in one round and
// 16% the other way in the next, though they do the same work. Run side
// by side, one on each processor, the two see the same host; four such
// pairs in that run gave ratios of 0.99 to 1.06.
const coveragePairs = 3

// tracedBatch repeats three passes over the same corpus for the run's
// length: an untraced facade pass, the replay of that pass through the
// modules' public functions without spans, and the same replay traced.
// The traced replay gives the per-layer figures, and the two replays
// give the cost of tracing (trace.overhead_share). It then runs
// coveragePairs facade passes each beside a traced replay, whose layers
// must account for the facade pass (trace.unaccounted_share), and ends
// with one facade pass at Workers: 2 for the scaling figure.
func tracedBatch(cfg runConfig, in batchInput, o *outcome) error {
	tr := newTracer()
	// The replay takes its extractors and resources from a System over
	// the same corpus, which is what the facade pass builds internally.
	sys, err := facet.NewSystem(in.env, facet.Options{Workers: 1})
	if err != nil {
		return err
	}
	for _, d := range in.docs {
		sys.Add(d)
	}
	var facadeTimes, plainTimes []float64
	var first passOutput
	var allocs, cycles []float64
	var agg []map[string]float64
	var plainCPU, tracedCPU time.Duration
	check := func(what string, got, want passOutput) {
		if got != want {
			o.failed++
			o.check(fmt.Errorf("%s %d: ranking or tree differs from the facade pass", what, len(agg)+1))
		}
	}
	deadline := time.Now().Add(cfg.seconds)
	for len(agg) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		m0 := readMem()
		t, want, err := facadePass(in, 1)
		m1 := readMem()
		o.attempted++
		if err != nil {
			return err
		}
		facadeTimes = append(facadeTimes, t.total.Seconds())
		allocs = append(allocs, float64(m1.alloc-m0.alloc)/(1<<20))
		cycles = append(cycles, float64(m1.cycles-m0.cycles))

		runtime.GC()
		c0 := cpuTime()
		plain, err := replayPass(nil, 0, sys, in.docs)
		plainCPU += cpuTime() - c0
		o.attempted++
		if err != nil {
			return err
		}
		plainTimes = append(plainTimes, plain.took.Seconds())
		check("untraced replay", plain.out, want)

		runtime.GC()
		c0 = cpuTime()
		tr.enabled.Store(true)
		traced, err := replayPass(tr, int64(len(agg)+1), sys, in.docs)
		tr.enabled.Store(false)
		tracedCPU += cpuTime() - c0
		o.attempted++
		if err != nil {
			return err
		}
		check("traced replay", traced.out, want)
		if len(agg) == 0 {
			first = want
		}
		agg = append(agg, traced.layers)
	}
	var pairRoots []int
	var pairFacade, pairRatios []float64
	for p := 0; p < coveragePairs; p++ {
		runtime.GC()
		var ft passTimes
		var fout passOutput
		var ferr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ft, fout, ferr = facadePass(in, 1)
		}()
		tr.enabled.Store(true)
		r, err := replayPass(tr, int64(len(agg)+p+1), sys, in.docs)
		tr.enabled.Store(false)
		wg.Wait()
		o.attempted += 2
		if err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
		if r.out != fout || fout != first {
			o.failed++
			o.check(fmt.Errorf("side-by-side pair %d: ranking or tree differs from the facade pass", p+1))
		}
		pairRoots = append(pairRoots, r.root)
		pairFacade = append(pairFacade, ft.total.Seconds())
		pairRatios = append(pairRatios, r.took.Seconds()/ft.total.Seconds())
		cfg.logf("side-by-side pair %d: facade pass %.3f s, traced replay %.3f s", p+1, ft.total.Seconds(), r.took.Seconds())
	}
	share, err := coverage(tr.snapshot(), pairRoots, pairFacade)
	o.metrics["trace.unaccounted_share"] = share
	o.check(err)
	// Each pair's replay time over its facade pass time.
	o.noise["pair_ratio_min"] = minOf(pairRatios)
	o.noise["pair_ratio_max"] = maxOf(pairRatios)

	runtime.GC()
	w2, _, err := facadePass(in, 2)
	o.attempted++
	if err != nil {
		return err
	}

	for name := range agg[0] {
		var xs []float64
		for _, a := range agg {
			xs = append(xs, a[name])
		}
		o.metrics[name] = median(xs)
	}
	o.metrics["trace.overhead_share"] = overheadShare(tracedCPU, float64(len(agg)), plainCPU, float64(len(plainTimes)))
	o.metrics["parallel.speedup_w2"] = median(facadeTimes) / w2.total.Seconds()
	o.metrics["runtime.alloc_mb_per_pass"] = median(allocs)
	o.metrics["runtime.gc_cycles_per_pass"] = median(cycles)
	o.noise["passes"] = float64(len(facadeTimes))
	// How closely the untraced replay stands for the facade pass.
	o.noise["replay_vs_facade"] = median(plainTimes)/median(facadeTimes) - 1
	return tr.write(tracePath(cfg, "batch_extract"))
}

// coverage is trace.unaccounted_share: the share of the facade pass that
// the traced replay's layers do not account for. Each pair ran a facade
// pass and a traced replay side by side (see coveragePairs); a pair's
// layer time is its replay root's duration minus the root's self time
// (the time no stage span covers). The share is |1 − the median over
// pairs of layer time ÷ facade pass time|: it grows when a stage goes
// unwrapped, and when the replay stops doing what the facade pass does,
// in either direction. Above maxUnaccounted it is returned with an error.
func coverage(spans []span, roots []int, facade []float64) (float64, error) {
	self := selfTimes(spans)
	ratios := make([]float64, len(roots))
	for i, r := range roots {
		ratios[i] = (spans[r].dur() - self[r]).Seconds() / facade[i]
	}
	share := math.Abs(1 - median(ratios))
	if share > maxUnaccounted {
		return share, fmt.Errorf("the traced replay's layers account for %.0f%% of the facade pass, not within %.0f%%",
			100*median(ratios), 100*maxUnaccounted)
	}
	return share, nil
}

// replay is what one replay pass returns.
type replay struct {
	out  passOutput
	took time.Duration
	// root is the index of the pass's root span, and layers its
	// per-layer figures; traced replays only.
	root   int
	layers map[string]float64
}

// replayPass re-runs one facade pass stage by stage through the modules'
// public functions — the facade's stages run inside the package and
// cannot be wrapped. With a tracer it wraps the extractors and resources
// and records a span around each stage; with a nil tracer it records
// nothing, which is the untraced baseline of the same work.
func replayPass(tr *tracer, id int64, sys *facet.System, docs []facet.Document) (replay, error) {
	ctx := context.Background()
	reg := obsv.NewRegistry()
	start := time.Now()
	root := -1
	if tr != nil {
		root = tr.open(id, "pass", -1)
	}
	stage := func(name string) int {
		if tr == nil {
			return -1
		}
		i := tr.open(id, name, root)
		tr.current.Store(int64(i))
		return i
	}
	end := func(i int) {
		if tr != nil {
			tr.close(i)
			tr.current.Store(-1)
		}
	}

	s := stage("textdb.index")
	corpus := textdb.NewCorpus()
	for _, d := range docs {
		corpus.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	}
	end(s)

	s = stage("facet.setup")
	exs, rs := sys.CoreExtractors(), sys.CoreResources()
	if tr != nil {
		exs, rs = wrapExtractors(tr, exs), wrapResources(tr, rs)
	}
	end(s)

	s = stage("core.identify_important")
	important, _, err := core.IdentifyImportantReport(ctx, corpus, exs, 0, 1)
	end(s)
	if err != nil {
		return replay{}, err
	}
	s = stage("core.derive_context")
	contextTerms, _, _, err := core.DeriveContextFallbackReport(ctx, important, rs, nil, nil, 1)
	end(s)
	if err != nil {
		return replay{}, err
	}
	s = stage("core.analyze")
	res := core.AnalyzeWith(corpus, contextTerms, 0, core.AnalyzeOptions{Workers: 1})
	end(s)
	terms := res.FacetTermStrings()

	s = stage("facet.assign_doc_terms")
	docTerms := assignDocTerms(corpus, important, core.ContextVotes(important, rs, nil), terms)
	end(s)

	s = stage("hierarchy.build")
	b, ok := hierarchy.Lookup("subsumption")
	if !ok {
		return replay{}, fmt.Errorf("subsumption builder not registered")
	}
	forest, err := b.Build(ctx, terms, docTerms, hierarchy.BuildConfig{Workers: 1, Metrics: reg})
	end(s)
	if err != nil {
		return replay{}, err
	}
	s = stage("browse.build")
	_, err = browse.Build(corpus, forest, docTerms)
	end(s)
	if err != nil {
		return replay{}, err
	}
	r := replay{out: passOutput{ranking: strings.Join(terms, "\n"), tree: hierarchy.FormatTree(forest)}, took: time.Since(start), root: root}
	if tr == nil {
		return r, nil
	}
	tr.close(root)

	lookups := 0
	for _, imp := range important {
		lookups += len(imp) * len(rs)
	}
	m := passLayers(tr.snapshot(), root)
	m["core.candidates"] = float64(len(res.Candidates))
	m["core.resource_cache.hit_rate"] = 1 - ratio(m["core.resource.calls"], float64(lookups))
	snap := reg.Snapshot()
	m["hierarchy.pairs.evaluated"] = float64(snap.Counters["hierarchy.pairs.evaluated"])
	m["hierarchy.pairs.skipped"] = float64(snap.Counters["hierarchy.pairs.skipped"])
	r.layers = m
	return r, nil
}

// passLayers turns one replay pass's spans into per-layer figures: each
// stage's self time, each extractor's and resource's time within the
// stage that called it, and the resource calls document assignment
// repeats after Step 2.
func passLayers(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	m := map[string]float64{}
	for i, s := range spans {
		if s.Parent != root {
			continue
		}
		m[s.Name+"_ms"] += ms(self[i])
	}
	for i, s := range spans {
		if s.Parent < 0 || spans[s.Parent].Parent != root {
			continue
		}
		switch stage := spans[s.Parent].Name; stage {
		case "facet.assign_doc_terms":
			m["facet.assign_doc_terms.resource_ms"] += ms(self[i])
			m["facet.assign_doc_terms.resource_calls"]++
		case "core.derive_context":
			m[s.Name+"_ms"] += ms(self[i])
			m["core.resource.calls"]++
		default:
			m[s.Name+"_ms"] += ms(self[i])
		}
	}
	return m
}

// assignDocTerms is the facade's document-to-facet assignment (facet
// Result.assignDocTerms is unexported): terms from the document text,
// plus context terms that at least two of the document's important terms
// vote for (one when it has fewer than two).
func assignDocTerms(corpus *textdb.Corpus, important [][]string, votes []map[string]int, terms []string) [][]string {
	termSet := map[string]bool{}
	for _, t := range terms {
		termSet[t] = true
	}
	docTerms := make([][]string, corpus.Len())
	for d := 0; d < corpus.Len(); d++ {
		present := map[string]bool{}
		for _, id := range corpus.DocTerms(textdb.DocID(d)) {
			if s := corpus.Dict().String(id); termSet[s] {
				present[s] = true
			}
		}
		need := 2
		if len(important[d]) < 2 {
			need = 1
		}
		for c, v := range votes[d] {
			if v >= need && termSet[c] {
				present[c] = true
			}
		}
		for t := range present {
			docTerms[d] = append(docTerms[d], t)
		}
		sort.Strings(docTerms[d])
	}
	return docTerms
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func tracePath(cfg runConfig, workload string) string {
	return fmt.Sprintf("%s/%s-seed%d.jsonl", traceDir, workload, cfg.seed)
}
