// Package core implements the paper's primary contribution: the
// unsupervised facet-term discovery pipeline of Section IV.
//
//  1. Identify the important terms of every document with one or more
//     term extractors (Figure 1).
//  2. Query one or more external resources with each important term and
//     expand the document with the returned context terms, producing the
//     contextualized database C(D) (Figure 2).
//  3. Compare term distributions between D and C(D): a term is a
//     candidate facet term when both the frequency shift
//     Shift_f(t) = df_C(t) − df(t) and the rank-bin shift
//     Shift_r(t) = B_D(t) − B_C(t) are positive; candidates are ranked by
//     Dunning's log-likelihood statistic −log λ and the top k returned
//     (Figure 3).
//
// Extractors and resources are interfaces; the substrates in
// internal/{ner,yterms,wiki,wordnet,websearch} provide the paper's five
// concrete implementations, and domain glossaries (Section VII) plug in
// through the same seams.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/textdb"
)

// Extractor identifies the important terms of a document (Section IV-A).
// Extract receives the document text (title and body) and returns
// normalized terms.
type Extractor interface {
	Name() string
	Extract(text string) []string
}

// Resource returns context terms for an important term (Section IV-B).
type Resource interface {
	Name() string
	Context(term string) []string
}

// ResourceErr is the fallible counterpart of Resource: the remote
// services behind the paper's resources (Google, Wikipedia) can fail,
// time out, or be down, and ContextErr surfaces that instead of
// silently returning nothing. Resources that also implement ResourceErr
// are upgraded automatically by the pipeline; failures are then recorded
// in Result.Degradations rather than mistaken for "no context".
type ResourceErr interface {
	Name() string
	ContextErr(ctx context.Context, term string) ([]string, error)
}

// ExtractorErr is the fallible counterpart of Extractor (the paper's
// Yahoo Term Extraction service is a remote call too).
type ExtractorErr interface {
	Name() string
	ExtractErr(ctx context.Context, text string) ([]string, error)
}

// infallibleResource adapts a plain Resource to ResourceErr; it never
// errors.
type infallibleResource struct{ Resource }

func (r infallibleResource) ContextErr(ctx context.Context, term string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.Context(term), nil
}

// AsResourceErr upgrades a Resource to its fallible interface when it
// implements one, and wraps it as never-failing otherwise.
func AsResourceErr(r Resource) ResourceErr {
	if re, ok := r.(ResourceErr); ok {
		return re
	}
	return infallibleResource{r}
}

// infallibleExtractor adapts a plain Extractor to ExtractorErr.
type infallibleExtractor struct{ Extractor }

func (e infallibleExtractor) ExtractErr(ctx context.Context, text string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Extract(text), nil
}

// AsExtractorErr upgrades an Extractor to its fallible interface when it
// implements one, and wraps it as never-failing otherwise.
func AsExtractorErr(e Extractor) ExtractorErr {
	if ee, ok := e.(ExtractorErr); ok {
		return ee
	}
	return infallibleExtractor{e}
}

// Config assembles a pipeline.
type Config struct {
	Extractors []Extractor
	Resources  []Resource
	// TopK bounds the number of facet terms returned; 0 means the paper's
	// working value of 200.
	TopK int
	// MaxImportantPerDoc caps important terms per document (0 = no cap);
	// extractors already bound their own output, so this is a safety net.
	MaxImportantPerDoc int
	// Fallback, when set, is a last-resort context resource consulted for
	// an important term only when EVERY configured resource failed for
	// that (document, term) lookup — retries exhausted or circuit open.
	// With the distributional model (internal/distctx) here, a run whose
	// external resources are all dark degrades to corpus-only context
	// instead of running context-free. Healthy runs never touch it, so
	// the fault-free output is byte-identical with or without a Fallback.
	// Fallback is NOT added to Result.Resources: downstream vote-based
	// document assignment keeps using the primary resources only.
	Fallback Resource
	// Metrics, when set, additionally records each stage's duration into
	// the registry as core.stage.<name> histograms, so long-running
	// servers see pipeline cost continuously, not just per run.
	Metrics *obsv.Registry
	// Workers bounds the worker pool every pipeline stage shards across:
	// important-term identification, context derivation, DF-table
	// accumulation, and candidate scoring. 0 selects
	// runtime.GOMAXPROCS(0); 1 takes the sequential path. Output is
	// identical for every worker count — the stages shard documents (and
	// candidate terms) into per-worker slots and merge deterministically.
	// Extractors and Resources must be safe for concurrent use when
	// Workers > 1 (the built-in substrates are read-only after
	// construction).
	Workers int
}

// Pipeline is a configured facet-discovery run. It caches resource
// lookups, so expanding a corpus costs one resource query per distinct
// (resource, term) pair — the offline precomputation strategy the paper
// describes in Section V-D.
type Pipeline struct {
	cfg   Config
	cache *ResourceCache
}

// New validates the configuration and returns a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Extractors) == 0 {
		return nil, fmt.Errorf("core: no extractors configured")
	}
	if len(cfg.Resources) == 0 {
		return nil, fmt.Errorf("core: no resources configured")
	}
	if cfg.TopK == 0 {
		cfg.TopK = 200
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("core: negative TopK %d", cfg.TopK)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", cfg.Workers)
	}
	cfg.Workers = parallel.Workers(cfg.Workers)
	return &Pipeline{cfg: cfg, cache: NewResourceCache()}, nil
}

// background aliases context.Background() for use inside functions whose
// per-document context-term parameter shadows the context package.
var background = context.Background()

// FacetTerm is one discovered facet term with its evidence.
type FacetTerm struct {
	Term   string
	DF     int     // document frequency in the original database
	DFC    int     // document frequency in the contextualized database
	ShiftF int     // DFC − DF
	ShiftR int     // B_D − B_C
	Score  float64 // −log λ
}

// Result carries everything a run produces.
type Result struct {
	// Facets are the top-k facet terms, ranked by Score descending.
	Facets []FacetTerm
	// Candidates are all terms passing both shift tests, ranked like
	// Facets (Facets is its prefix).
	Candidates []FacetTerm
	// Important[i] lists the important terms identified in document i.
	Important [][]string
	// Context[i] lists the context terms added to document i.
	Context [][]string
	// Resources are the resources the run used; downstream consumers
	// (hierarchy population, browsing assignment) re-query them, each
	// through a cache of its choosing. The facade's document assignment
	// passes ContextVotesContext no cache, so it gets a fresh one and
	// repeats every Step-2 lookup.
	Resources []Resource
	// NumDocs is the collection size |D|.
	NumDocs int
	// Stages reports each pipeline stage's wall-clock cost in execution
	// order — the per-run counterpart of the Section V-D efficiency table.
	Stages []obsv.StageSample
	// FallbackLookups counts the (document, term) expansions answered by
	// Config.Fallback because every primary resource failed. 0 on a
	// healthy run; alongside Degradations it quantifies how much of the
	// context came from the corpus-only safety net.
	FallbackLookups int
	// Degradations reports, per external dependency, the lookups the run
	// completed WITHOUT because the dependency failed permanently (after
	// the resilience layer's retries, or with its circuit open). An empty
	// list means every extractor and resource answered every query: the
	// output is exactly the fault-free output. A non-empty list means the
	// run degraded gracefully — it proceeded with the surviving
	// dependencies — and quantifies the gap.
	Degradations []Degradation
}

// Degradation quantifies one external dependency's failures during a run.
type Degradation struct {
	// Name is the failing resource or extractor's Name().
	Name string
	// Kind is "resource" or "extractor".
	Kind string
	// Failures counts failed lookups: (document, term) expansion queries
	// for resources, documents for extractors.
	Failures int
	// Docs counts distinct documents with at least one failed lookup.
	Docs int
	// LastErr is the text of one representative error.
	LastErr string
}

// degAccum is one worker's running tally for a dependency; merged across
// workers into a Degradation afterwards.
type degAccum struct {
	failures int
	docs     int
	lastErr  string
}

// recordDeg tallies one failed lookup into a worker-local map.
func recordDeg(m map[string]*degAccum, name string, newDoc bool, err error) {
	a := m[name]
	if a == nil {
		a = &degAccum{}
		m[name] = a
	}
	a.failures++
	if newDoc {
		a.docs++
	}
	a.lastErr = err.Error()
}

// mergeDegradations folds per-worker tallies into a deterministic
// (name-sorted) report. Counts are additive across disjoint document
// shards; LastErr takes the first non-empty text in worker order.
func mergeDegradations(kind string, perWorker []map[string]*degAccum) []Degradation {
	merged := map[string]*Degradation{}
	for _, m := range perWorker {
		for name, a := range m {
			d := merged[name]
			if d == nil {
				d = &Degradation{Name: name, Kind: kind}
				merged[name] = d
			}
			d.Failures += a.failures
			d.Docs += a.docs
			if d.LastErr == "" {
				d.LastErr = a.lastErr
			}
		}
	}
	out := make([]Degradation, 0, len(merged))
	for _, d := range merged {
		out = append(out, *d)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Run executes the three steps over the corpus.
func (p *Pipeline) Run(corpus *textdb.Corpus) (*Result, error) {
	return p.RunContext(context.Background(), corpus)
}

// RunContext executes the three steps over the corpus, honoring
// cancellation: ctx is checked between stages and between documents
// inside the two expensive stages, so a canceled extraction stops within
// one document's worth of work.
func (p *Pipeline) RunContext(ctx context.Context, corpus *textdb.Corpus) (*Result, error) {
	if corpus.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	timer := obsv.NewStageTimer()
	observe := func(stage string, d time.Duration) {
		timer.Record(stage, d)
		if p.cfg.Metrics != nil {
			p.cfg.Metrics.Histogram("core.stage." + stage).Observe(d)
		}
	}

	start := time.Now()
	important, extractorDegs, err := IdentifyImportantReport(ctx, corpus, p.cfg.Extractors, p.cfg.MaxImportantPerDoc, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	observe("identify_important", time.Since(start))

	start = time.Now()
	contextTerms, resourceDegs, fallbackLookups, err := DeriveContextFallbackReport(ctx, important, p.cfg.Resources, p.cfg.Fallback, p.cache, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	observe("derive_context", time.Since(start))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	res := AnalyzeWith(corpus, contextTerms, p.cfg.TopK, AnalyzeOptions{Workers: p.cfg.Workers})
	observe("analyze", time.Since(start))

	res.Important = important
	res.Context = contextTerms
	res.Resources = p.cfg.Resources
	res.Stages = timer.Report()
	res.Degradations = append(extractorDegs, resourceDegs...)
	res.FallbackLookups = fallbackLookups
	if p.cfg.Metrics != nil {
		for _, d := range res.Degradations {
			p.cfg.Metrics.Counter("core.degraded_lookups." + d.Name).Add(int64(d.Failures))
		}
		if fallbackLookups > 0 {
			p.cfg.Metrics.Counter("core.fallback_lookups").Add(int64(fallbackLookups))
		}
	}
	return res, nil
}

// ImportantTerms is Step 1 (Figure 1) for one document: the union of the
// extractors' terms for text, first extractor first, without empty terms
// or repeats, cut to maxPerDoc terms (maxPerDoc <= 0 means no cap). Each
// extractor that fails is handed to fail with its error. A nil return
// goes on without that extractor's terms; any other error stops Step 1
// and is returned. Batch runs (IdentifyImportantReport) and live
// ingestion call it with their own failure policies.
func ImportantTerms(ctx context.Context, text string, extractors []ExtractorErr, maxPerDoc int, fail func(name string, err error) error) ([]string, error) {
	seen := map[string]bool{}
	var terms []string
	for _, ex := range extractors {
		extracted, err := ex.ExtractErr(ctx, text)
		if err != nil {
			if err := fail(ex.Name(), err); err != nil {
				return nil, err
			}
			continue
		}
		for _, t := range extracted {
			if t != "" && !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	if maxPerDoc > 0 && len(terms) > maxPerDoc {
		terms = terms[:maxPerDoc]
	}
	return terms, nil
}

// LookupError is one failed Step-2 call: Resource gave no context for
// Term.
type LookupError struct {
	Resource string // the resource's Name()
	Term     string // the important term it was asked about
	Fallback bool   // the resource was the fallback
	Err      error
}

func (e *LookupError) Error() string {
	kind := "resource"
	if e.Fallback {
		kind = "fallback"
	}
	return fmt.Sprintf("%s %s(%q): %v", kind, e.Resource, e.Term, e.Err)
}

// Unwrap returns the resource's own error.
func (e *LookupError) Unwrap() error { return e.Err }

// ContextTerms is Step 2 (Figure 2) for one document: every resource's
// context for each of its important terms, fetched through lookup (a
// cache's LookupErr). It returns the context terms in first-seen order —
// the document's row of C(D) — and votes, which counts for each of them
// how many important terms brought it in through any resource; document
// assignment reads the votes (CorroboratedTerms).
//
// fallback, when non-nil, is asked about a term only when every resource
// failed for it. Its context counts like a resource's, and rescued
// counts the terms it answered. A fallback nobody asks changes nothing,
// so configuring one leaves healthy runs as they are.
//
// Each failed call is handed to fail. A nil return goes on without that
// answer. Any other error stops Step 2 at the first failure the fallback
// cannot rescue and is returned, with the terms rescued so far. Without a
// fallback no failure can be rescued, so no further lookup is made; with
// one, the term's other resources are asked first, and a term the
// fallback then rescues does not stop.
func ContextTerms(ctx context.Context, important []string, resources []ResourceErr, fallback ResourceErr,
	lookup func(context.Context, ResourceErr, string) ([]string, error), fail func(*LookupError) error,
) (terms []string, votes map[string]int, rescued int, err error) {
	votes = map[string]int{}
	voted := map[string]bool{} // context terms the current important term already voted for
	merge := func(answer []string) {
		for _, c := range answer {
			if c == "" || voted[c] {
				continue
			}
			voted[c] = true
			if votes[c] == 0 {
				terms = append(terms, c)
			}
			votes[c]++
		}
	}
	for _, t := range important {
		clear(voted)
		failed := 0
		var stop error // the term's first stopping failure, held while the fallback may rescue it
		for _, r := range resources {
			answer, lerr := lookup(ctx, r, t)
			if lerr == nil {
				merge(answer)
				continue
			}
			failed++
			if ferr := fail(&LookupError{Resource: r.Name(), Term: t, Err: lerr}); ferr != nil && stop == nil {
				if fallback == nil {
					return nil, nil, rescued, ferr
				}
				stop = ferr
			}
		}
		if rescuable := fallback != nil && failed > 0 && failed == len(resources); !rescuable {
			if stop != nil {
				return nil, nil, rescued, stop
			}
			continue
		}
		answer, lerr := lookup(ctx, fallback, t)
		if lerr != nil {
			if ferr := fail(&LookupError{Resource: fallback.Name(), Term: t, Fallback: true, Err: lerr}); ferr != nil {
				return nil, nil, rescued, ferr
			}
			continue
		}
		rescued++
		merge(answer)
	}
	return terms, votes, rescued, nil
}

// IdentifyImportantReport is Step 1 over a corpus: ImportantTerms for
// every document.
//
// Documents are sharded across a bounded worker pool (workers <= 0
// selects GOMAXPROCS, 1 runs sequentially on the calling goroutine):
// extraction is CPU-bound and per-document independent, and the built-in
// extractors are read-only after construction. Output is identical for
// every worker count — each worker writes only its own documents' slots.
// Every worker checks ctx before each document, and the first ctx error
// aborts the run.
//
// An extractor that fails for a document (extractors implementing
// ExtractorErr can) is skipped for that document, the run proceeds with
// the surviving extractors, and the gap is quantified in the returned
// Degradations. Plain extractors never fail, so for them the report is
// always empty.
func IdentifyImportantReport(ctx context.Context, corpus *textdb.Corpus, extractors []Extractor, maxPerDoc, workers int) ([][]string, []Degradation, error) {
	fallible := make([]ExtractorErr, len(extractors))
	for i, ex := range extractors {
		fallible[i] = AsExtractorErr(ex)
	}
	nw := parallel.Workers(workers)
	degs := make([]map[string]*degAccum, nw)
	for w := range degs {
		degs[w] = map[string]*degAccum{}
	}
	out := make([][]string, corpus.Len())
	err := parallel.For(ctx, corpus.Len(), nw, func(w, i int) {
		doc := corpus.Doc(textdb.DocID(i))
		out[i], _ = ImportantTerms(ctx, doc.Title+". "+doc.Text, fallible, maxPerDoc, func(name string, err error) error {
			if ctx.Err() != nil {
				return ctx.Err() // cancellation, not a dependency failure
			}
			recordDeg(degs[w], name, true, err)
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return out, mergeDegradations("extractor", degs), nil
}

// DeriveContextFallbackReport is Step 2 over a corpus: ContextTerms for
// every document, returning its context rows — the contextualized
// database C(D) — and the number of terms fallback rescued (fallback may
// be nil). Lookups go through cache; a nil cache allocates a private one.
//
// Documents are sharded across a bounded worker pool (workers <= 0
// selects GOMAXPROCS, 1 runs sequentially). The shared cache is safe for
// this: lookups are single-flight per (resource, term), so a hot term
// missed by several workers at once is still derived exactly once.
// Output is identical for every worker count — per-document rows depend
// only on that document's important terms. ctx is checked between
// documents, so a canceled expansion stops after at most one document's
// resource queries per worker.
//
// A resource whose lookup fails permanently (resources implementing
// ResourceErr can — the resilience layer surfaces exhausted retries and
// open circuits here) contributes nothing for that (document, term)
// pair, the expansion proceeds with the surviving resources, and the gap
// is quantified in the returned Degradations. A failing fallback is
// recorded the same way; the pair then completes context-free. Failed
// lookups are never cached, so a recovering resource starts answering
// again immediately.
func DeriveContextFallbackReport(ctx context.Context, important [][]string, resources []Resource, fallback Resource, cache *ResourceCache, workers int) ([][]string, []Degradation, int, error) {
	rows := make([][]string, len(important))
	degs, rescued, err := deriveContext(ctx, important, resources, fallback, cache, workers, rows, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return rows, degs, rescued, nil
}

// deriveContext runs ContextTerms over every document under the batch
// policy — a failed lookup is tallied and the document goes on without
// its answer — and stores each document's context row in rows and its
// votes in votes, when those are non-nil.
func deriveContext(ctx context.Context, important [][]string, resources []Resource, fallback Resource, cache *ResourceCache, workers int, rows [][]string, votes []map[string]int) ([]Degradation, int, error) {
	if cache == nil {
		cache = NewResourceCache()
	}
	fallible := make([]ResourceErr, len(resources))
	for i, r := range resources {
		fallible[i] = AsResourceErr(r)
	}
	var fallbackErr ResourceErr
	if fallback != nil {
		fallbackErr = AsResourceErr(fallback)
	}
	nw := parallel.Workers(workers)
	degs := make([]map[string]*degAccum, nw)
	for w := range degs {
		degs[w] = map[string]*degAccum{}
	}
	rescues := make([]int, nw)
	err := parallel.For(ctx, len(important), nw, func(w, i int) {
		failedDoc := map[string]bool{} // dependencies that already failed for this document
		row, v, rescued, _ := ContextTerms(ctx, important[i], fallible, fallbackErr, cache.LookupErr, func(e *LookupError) error {
			if ctx.Err() != nil {
				return ctx.Err() // cancellation, not a dependency failure
			}
			recordDeg(degs[w], e.Resource, !failedDoc[e.Resource], e.Err)
			failedDoc[e.Resource] = true
			return nil
		})
		rescues[w] += rescued
		if rows != nil {
			rows[i] = row
		}
		if votes != nil {
			votes[i] = v
		}
	})
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, r := range rescues {
		total += r
	}
	return mergeDegradations("resource", degs), total, nil
}

// AnalyzeOptions selects variants of Step 3 for ablation studies. The
// zero value is the paper's algorithm: both shift tests required, ranking
// by Dunning's log-likelihood.
type AnalyzeOptions struct {
	// SkipShiftF / SkipShiftR disable the respective gating test.
	SkipShiftF bool
	SkipShiftR bool
	// Scorer overrides the ranking statistic; nil selects the paper's
	// −log λ. The paper argues chi-square (stats.ChiSquare) misbehaves on
	// Zipfian frequencies; the ablation experiment substitutes it here.
	Scorer func(df, dfC, n int) float64
	// Workers shards DF-table accumulation and candidate scoring across a
	// bounded worker pool; <= 1 (the zero value) takes the sequential
	// path. Results are identical for every worker count: document
	// frequencies are additive across shards, and the final ranking's
	// (Score, Term) order is total. The Scorer must be safe for
	// concurrent use when Workers > 1 (a pure function of its arguments,
	// as both built-in statistics are).
	Workers int
}

// ExpandDocTermsAppend builds one document's contextualized term row (the
// Fig. 2 → Fig. 3 hand-off) into dst, appended to and returned like
// append: the document's own term IDs followed by its context terms,
// interned and deduplicated. IDs of terms that gained their first
// occurrence through context — the only terms able to pass Shift_f > 0 —
// are recorded in ctxSet (when non-nil). scratch is an optional reusable
// dedup map, cleared on entry; nil allocates one. Both the batch analysis
// (AnalyzeWith) and the live-ingestion delta path build their
// contextualized DF tables through this one helper, so the two always
// agree on what C(D) contains. Callers expanding many documents pass the
// previous row's buffer as dst[:0] so the per-document row costs zero
// allocations once the buffer and scratch map reach steady-state size.
func ExpandDocTermsAppend(dst []textdb.TermID, dict *textdb.Dictionary, orig []textdb.TermID, context []string, scratch map[textdb.TermID]bool, ctxSet map[textdb.TermID]bool) []textdb.TermID {
	if scratch == nil {
		scratch = make(map[textdb.TermID]bool, len(orig)+len(context))
	} else {
		clear(scratch)
	}
	for _, id := range orig {
		scratch[id] = true
		dst = append(dst, id)
	}
	for _, c := range context {
		id := dict.Intern(c)
		if !scratch[id] {
			scratch[id] = true
			dst = append(dst, id)
			if ctxSet != nil {
				ctxSet[id] = true
			}
		}
	}
	return dst
}

// ContextVotes returns, per document, the votes of Step 2 (ContextTerms):
// how many distinct important terms contributed each context term
// through any resource. The pipeline's Step 3 uses the flat union
// (DeriveContextFallbackReport); document-to-facet ASSIGNMENT for
// hierarchy population and browsing uses these vote counts (see
// CorroboratedTerms): a facet term describes a document only when several
// of the document's own important terms independently pull it in, which
// keeps one stray entity mention from tagging the story with a whole
// unrelated dimension. Lookups go through cache (nil allocates a private
// one), and a failed lookup counts as no context.
func ContextVotes(important [][]string, resources []Resource, cache *ResourceCache) []map[string]int {
	// The background context is never done, so there is no error.
	out, _ := ContextVotesContext(context.Background(), important, resources, cache)
	return out
}

// ContextVotesContext is ContextVotes with cancellation: it checks ctx
// before each document and returns ctx's error, and no votes, once ctx
// is done.
func ContextVotesContext(ctx context.Context, important [][]string, resources []Resource, cache *ResourceCache) ([]map[string]int, error) {
	votes := make([]map[string]int, len(important))
	if _, _, err := deriveContext(ctx, important, resources, nil, cache, 1, nil, votes); err != nil {
		return nil, err
	}
	return votes, nil
}

// CorroboratedTerms is the vote rule of document assignment for one
// document: the IDs, ascending, of the context terms its Step-2 votes
// (ContextTerms) corroborate — those at least two of its important terms
// voted for, or at least one when it has fewer than two important terms.
// The IDs are dict's: Step 3's expansion (ExpandDocTermsAppend) interns
// every context term, so a term is normally looked up; one dict lacks is
// interned, in text order. It returns nil when no term is corroborated.
func CorroboratedTerms(dict *textdb.Dictionary, important []string, votes map[string]int) []textdb.TermID {
	need := 2
	if len(important) < 2 {
		need = 1
	}
	var row []textdb.TermID
	var missing []string
	for c, v := range votes {
		if v < need {
			continue
		}
		if id := dict.Lookup(c); id != textdb.NoTerm {
			row = append(row, id)
		} else {
			missing = append(missing, c)
		}
	}
	slices.Sort(missing) // IDs must not follow the map's iteration order
	for _, c := range missing {
		row = append(row, dict.Intern(c))
	}
	slices.Sort(row)
	return row
}

// CorroboratedRows is CorroboratedTerms for every document: important
// holds the documents' Step-1 rows and votes their ContextVotes.
func CorroboratedRows(dict *textdb.Dictionary, important [][]string, votes []map[string]int) [][]textdb.TermID {
	rows := make([][]textdb.TermID, len(votes))
	for d := range rows {
		rows[d] = CorroboratedTerms(dict, important[d], votes[d])
	}
	return rows
}

// AssignDocTerms is the document-to-facet assignment that hierarchy
// construction and browsing share: per document, the facet terms (those
// in terms) occurring in its text or among its corroborated context
// terms, sorted and deduplicated. corroborated[d] is document d's
// CorroboratedTerms row, in the corpus dictionary.
//
// Both rows are read by term ID through one slot table over the facet
// terms, so a document costs O(its terms + its corroborated terms).
func AssignDocTerms(corpus *textdb.Corpus, corroborated [][]textdb.TermID, terms []string) [][]string {
	// Build every document's term row first: it interns the document's
	// terms, and a facet term not yet interned would have no ID to match.
	for d := 0; d < corpus.Len(); d++ {
		corpus.DocTerms(textdb.DocID(d))
	}
	facets := slices.Clone(terms)
	slices.Sort(facets)
	facets = slices.Compact(facets)
	ids := make([]textdb.TermID, len(facets))
	maxID := textdb.NoTerm
	for i, t := range facets {
		ids[i] = corpus.Dict().Lookup(t)
		maxID = max(maxID, ids[i])
	}
	// slot[id] is 1 + the index in facets of the facet term with that ID.
	slot := make([]int32, maxID+1)
	for i, id := range ids {
		if id != textdb.NoTerm {
			slot[id] = int32(i) + 1
		}
	}
	var hits []int32 // slots of the document's facet terms, facets order once sorted
	docTerms := make([][]string, corpus.Len())
	for d := range docTerms {
		hits = hits[:0]
		for _, row := range [2][]textdb.TermID{corpus.DocTerms(textdb.DocID(d)), corroborated[d]} {
			for _, id := range row {
				if int(id) < len(slot) && slot[id] > 0 {
					hits = append(hits, slot[id]-1)
				}
			}
		}
		if len(hits) == 0 {
			continue
		}
		slices.Sort(hits)
		hits = slices.Compact(hits)
		docTerms[d] = make([]string, len(hits))
		for i, h := range hits {
			docTerms[d][i] = facets[h]
		}
	}
	return docTerms
}

// AnalyzeWith is Step 3 (Figure 3): comparative term-frequency analysis
// over the original corpus D and its per-document context expansions
// C(D); the zero AnalyzeOptions is the paper's algorithm. The DF tables
// for D and C(D) are accumulated as per-worker delta tables over
// document shards (one table pair at opts.Workers <= 1) and merged
// before scoring; document frequencies are additive across disjoint
// shards, so the merged tables equal the sequentially built ones.
func AnalyzeWith(corpus *textdb.Corpus, context [][]string, topK int, opts AnalyzeOptions) *Result {
	dict := corpus.Dict()
	n := corpus.Len()
	type delta struct {
		dfD, dfC *textdb.DFTable
		ctxSet   map[textdb.TermID]bool
		scratch  map[textdb.TermID]bool
		buf      []textdb.TermID
	}
	deltas := make([]*delta, max(opts.Workers, 1))
	for w := range deltas {
		deltas[w] = &delta{
			dfD:     textdb.NewDFTable(dict),
			dfC:     textdb.NewDFTable(dict),
			ctxSet:  map[textdb.TermID]bool{},
			scratch: map[textdb.TermID]bool{},
		}
	}
	parallel.For(background, n, len(deltas), func(w, i int) {
		d := deltas[w]
		orig := corpus.DocTerms(textdb.DocID(i))
		d.dfD.AddDoc(orig)
		d.buf = ExpandDocTermsAppend(d.buf[:0], dict, orig, context[i], d.scratch, d.ctxSet)
		d.dfC.AddDoc(d.buf)
	})
	// Merge the other workers' deltas into the first, in worker order.
	all := deltas[0]
	for _, d := range deltas[1:] {
		all.dfD.Merge(d.dfD)
		all.dfC.Merge(d.dfC)
		for id := range d.ctxSet {
			all.ctxSet[id] = true
		}
	}
	return AnalyzeTables(dict, all.dfD, all.dfC, all.ctxSet, n, topK, opts)
}

// AnalyzeTables runs the Step-3 candidate selection and ranking over
// prebuilt document-frequency tables: dfD counts the original database,
// dfC the contextualized one, and ctxTermSet holds every term that gained
// at least one contextual occurrence (the only terms that can pass
// Shift_f > 0). Batch runs (AnalyzeWith) build the tables by scanning the
// corpus; the live ingestion subsystem maintains them incrementally as
// documents stream in and calls this directly at every rebuild epoch, so
// both paths share one scoring implementation and produce identical
// rankings.
func AnalyzeTables(dict *textdb.Dictionary, dfD, dfC *textdb.DFTable, ctxTermSet map[textdb.TermID]bool, numDocs, topK int, opts AnalyzeOptions) *Result {
	if topK <= 0 {
		topK = 200
	}
	n := numDocs
	ranksD := dfD.Ranks()
	ranksC := dfC.Ranks()

	scorer := opts.Scorer
	if scorer == nil {
		scorer = stats.LogLikelihood
	}
	// Only terms that gained at least one contextual occurrence can pass
	// Shift_f > 0, so candidate enumeration is restricted to ctxTermSet.
	// Both shift tests and the score are pure functions of the frozen
	// tables, so candidates shard across workers; the final (Score, Term)
	// sort is a total order, making the ranking identical for every
	// worker count.
	score := func(id textdb.TermID) (FacetTerm, bool) {
		df := dfD.DF(id)
		dfc := dfC.DF(id)
		shiftF := dfc - df
		if shiftF <= 0 && !opts.SkipShiftF {
			return FacetTerm{}, false
		}
		shiftR := textdb.Bin(ranksD.Rank(id)) - textdb.Bin(ranksC.Rank(id))
		if shiftR <= 0 && !opts.SkipShiftR {
			return FacetTerm{}, false
		}
		return FacetTerm{
			Term:   dict.String(id),
			DF:     df,
			DFC:    dfc,
			ShiftF: shiftF,
			ShiftR: shiftR,
			Score:  scorer(df, dfc, n),
		}, true
	}
	ids := make([]textdb.TermID, 0, len(ctxTermSet))
	for id := range ctxTermSet {
		ids = append(ids, id)
	}
	parts := make([][]FacetTerm, max(opts.Workers, 1))
	parallel.For(background, len(ids), len(parts), func(w, i int) {
		if ft, ok := score(ids[i]); ok {
			parts[w] = append(parts[w], ft)
		}
	})
	cands := parts[0]
	for _, p := range parts[1:] {
		cands = append(cands, p...)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Term < cands[b].Term
	})
	res := &Result{Candidates: cands, NumDocs: n}
	if topK > len(cands) {
		topK = len(cands)
	}
	res.Facets = cands[:topK]
	return res
}

// FacetTermStrings returns just the facet term texts of the result.
func (r *Result) FacetTermStrings() []string {
	out := make([]string, len(r.Facets))
	for i, f := range r.Facets {
		out[i] = f.Term
	}
	return out
}

// CandidateStrings returns the texts of ALL terms that passed both shift
// tests (the full Facet(D) set before top-k truncation).
func (r *Result) CandidateStrings() []string {
	out := make([]string, len(r.Candidates))
	for i, f := range r.Candidates {
		out[i] = f.Term
	}
	return out
}
