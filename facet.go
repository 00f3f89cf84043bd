// Package facet is the public API of this repository: an implementation
// of "Automatic Extraction of Useful Facet Hierarchies from Text
// Databases" (Dakka & Ipeirotis, ICDE 2008).
//
// The library extracts, without supervision, the general terms that make
// good browsing facets for a database of text documents — terms like
// "Political Leaders" or "Natural Disasters" that mostly do NOT appear in
// the documents themselves — and organizes them into per-facet hierarchies
// that power an OLAP-style faceted browsing interface.
//
// # Usage
//
// Build an Environment (the external resources: Wikipedia, WordNet, a web
// search engine), load documents into a System, and extract:
//
//	env, _ := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: 42})
//	sys, _ := facet.NewSystem(env, facet.Options{})
//	for _, d := range docs {
//		sys.Add(d)
//	}
//	res, _ := sys.ExtractFacets()
//	hier, _ := res.BuildHierarchy()
//	browser, _ := res.Browser(hier)
//
// This module is offline and self-contained: the environment's Wikipedia,
// WordNet and web index are synthesized from a ground-truth ontology (see
// DESIGN.md for the substitution rationale), but every algorithm — the
// three pipeline steps, the WordNet database file parser, the subsumption
// hierarchy builder, the browsing engine — is the real thing and would
// run unchanged against real resource dumps.
package facet

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/distctx"
	"repro/internal/hierarchy"
	"repro/internal/ner"
	"repro/internal/newsgen"
	"repro/internal/obsv"
	"repro/internal/ontology"
	"repro/internal/remote"
	"repro/internal/textdb"
	"repro/internal/websearch"
	"repro/internal/wiki"
	"repro/internal/wordnet"
	"repro/internal/yterms"
)

// Document is one text item to index.
type Document struct {
	Title  string
	Source string
	Date   time.Time
	Text   string
}

// EnvConfig controls the simulated environment.
type EnvConfig struct {
	// Seed drives the synthesized ontology, Wikipedia, and WordNet.
	Seed uint64
	// Scale multiplies the synthesized world's entity counts (default 1).
	Scale float64
	// ChargeLatency attaches the paper's virtual network latencies to the
	// web-based services (Yahoo-style extraction, Google-style search).
	ChargeLatency bool
}

// Environment is the set of external resources the pipeline consults.
type Environment struct {
	kb     *ontology.KB
	wiki   *wiki.Wiki
	wnet   *wordnet.DB
	engine *websearch.Engine
	clock  *remote.Clock
}

// NewSimulatedEnvironment synthesizes the full resource stack.
func NewSimulatedEnvironment(cfg EnvConfig) (*Environment, error) {
	// ontology.Build would silently misbehave on a negative or non-finite
	// Scale (entity counts truncate toward zero); reject loudly here.
	if cfg.Scale < 0 || math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) {
		return nil, fmt.Errorf("facet: invalid Scale %v (want a finite value >= 0; 0 selects the default of 1)", cfg.Scale)
	}
	kb, err := ontology.Build(ontology.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	w, err := wiki.Build(kb, wiki.Config{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	wn, err := wordnet.FromIsa(ontology.WordNetLexicon(kb))
	if err != nil {
		return nil, err
	}
	env := &Environment{
		kb:     kb,
		wiki:   w,
		wnet:   wn,
		engine: websearch.NewEngineFromWiki(w),
	}
	if cfg.ChargeLatency {
		env.clock = remote.NewClock()
	}
	return env, nil
}

// VirtualNetworkTime returns the accumulated simulated network latency
// (zero unless ChargeLatency was set).
func (e *Environment) VirtualNetworkTime() time.Duration {
	if e.clock == nil {
		return 0
	}
	return e.clock.Elapsed()
}

// GenerateNewsCorpus produces a synthetic news dataset grounded in the
// environment's ontology: profile is one of "SNYT", "SNB", "MNYT".
// It returns the documents; use it to drive examples and experiments.
func (e *Environment) GenerateNewsCorpus(profile string, numDocs int, seed uint64) ([]Document, error) {
	var p newsgen.Profile
	switch profile {
	case "SNYT":
		p = newsgen.SNYT
	case "SNB":
		p = newsgen.SNB
	case "MNYT":
		p = newsgen.MNYT
	default:
		return nil, fmt.Errorf("facet: unknown profile %q (want SNYT, SNB, or MNYT)", profile)
	}
	if numDocs > 0 {
		p = p.WithDocs(numDocs)
	}
	ds, err := newsgen.Generate(e.kb, p, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Document, ds.Corpus.Len())
	for i := range out {
		d := ds.Corpus.Doc(textdb.DocID(i))
		out[i] = Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
	}
	return out, nil
}

// Options configures a System.
type Options struct {
	// TopK bounds the number of facet terms extracted (default 200).
	TopK int
	// Extractors selects term extractors by name: "NE", "Yahoo",
	// "Wikipedia". Empty selects all three.
	Extractors []string
	// Resources selects context resources by name: "Google",
	// "WordNet Hypernyms", "Wikipedia Synonyms", "Wikipedia Graph", and
	// "Distributional" (alias "corpus") — the corpus-only co-occurrence
	// model that needs no external service at all (README "Corpus-only
	// mode"). Empty selects the four external ones.
	Resources []string
	// CorpusFallback arms the degraded-fallback path: a distributional
	// model is built over the indexed corpus and consulted for exactly
	// those (document, term) expansions where EVERY configured resource
	// failed (retries exhausted, circuits open). Healthy runs are
	// byte-identical with or without it; a run whose external resources
	// are all dark degrades to corpus-only context instead of running
	// context-free. Result.FallbackLookups counts the rescues.
	CorpusFallback bool
	// SubsumptionThreshold is θ for hierarchy construction, in [0,1]
	// (0 selects the default 0.8).
	SubsumptionThreshold float64
	// HierarchyBuilder selects the hierarchy-construction strategy by
	// registry name ("subsumption", "evidence", "treemin",
	// "agglomerative"; see hierarchy.Names). Empty selects "subsumption",
	// the paper's choice. Result.BuildHierarchy honors it; an explicit
	// Result.BuildHierarchyWith overrides it per call.
	HierarchyBuilder string
	// ExtraExtractors and ExtraResources plug domain-specific tools into
	// the pipeline alongside the built-in ones (Section VII of the paper;
	// see NewGlossaryExtractor / NewGlossaryResource).
	ExtraExtractors []TermExtractor
	ExtraResources  []ContextResource
	// Workers bounds the worker pool the pipeline stages and hierarchy
	// construction shard across. 0 selects GOMAXPROCS; 1 runs fully
	// sequentially. The result is identical for every worker count; see
	// README "Parallelism". ExtraExtractors and ExtraResources must be
	// safe for concurrent use when Workers != 1 (pure functions of their
	// input, like the built-ins, qualify).
	Workers int
}

// System is a facet-extraction session over a document collection.
type System struct {
	env     *Environment
	opts    Options
	corpus  *textdb.Corpus
	metrics *obsv.Registry

	// distMu guards the corpus-only model last built (dist) and the
	// corpus length it was built at (distDocs).
	distMu   sync.Mutex
	dist     core.Resource
	distDocs int
}

// SetMetrics instruments subsequent extractions: pipeline stage durations
// land in reg as core.stage.<name> histograms and degraded external
// lookups as core.degraded_lookups.<name> counters. A nil registry (the
// default) disables instrumentation. The warm-start test relies on these
// counters staying at zero when serving from a snapshot.
func (s *System) SetMetrics(reg *obsv.Registry) { s.metrics = reg }

// NewSystem validates options and returns an empty system.
func NewSystem(env *Environment, opts Options) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("facet: nil environment")
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("facet: negative TopK")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("facet: negative Workers")
	}
	if th := opts.SubsumptionThreshold; math.IsNaN(th) || th < 0 || th > 1 {
		return nil, fmt.Errorf("facet: SubsumptionThreshold %v outside [0,1]", th)
	}
	for _, e := range opts.Extractors {
		switch e {
		case "NE", "Yahoo", "Wikipedia":
		default:
			return nil, fmt.Errorf("facet: unknown extractor %q", e)
		}
	}
	for _, r := range opts.Resources {
		switch r {
		case "Google", "WordNet Hypernyms", "Wikipedia Synonyms", "Wikipedia Graph",
			"Distributional", "corpus":
		default:
			return nil, fmt.Errorf("facet: unknown resource %q", r)
		}
	}
	if opts.HierarchyBuilder != "" {
		if _, ok := hierarchy.Lookup(opts.HierarchyBuilder); !ok {
			return nil, fmt.Errorf("facet: unknown hierarchy builder %q (registered: %s)",
				opts.HierarchyBuilder, strings.Join(hierarchy.Names(), ", "))
		}
	}
	return &System{env: env, opts: opts, corpus: textdb.NewCorpus()}, nil
}

// Add indexes one document and returns its position.
func (s *System) Add(d Document) int {
	id := s.corpus.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	return int(id)
}

// Len returns the number of indexed documents.
func (s *System) Len() int { return s.corpus.Len() }

// buildExtractors assembles the selected extractors (defaults to all).
// The Yahoo-style extractor calibrates its background table against
// every document's term row; ctx is checked on entry and between those
// documents, and its error returned once it is done.
func (s *System) buildExtractors(ctx context.Context) ([]core.Extractor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := s.opts.Extractors
	if len(names) == 0 {
		names = []string{"NE", "Yahoo", "Wikipedia"}
	}
	var gaz []string
	for _, e := range s.env.kb.Entities() {
		gaz = append(gaz, e.Display)
		gaz = append(gaz, e.Variants...)
	}
	bg := textdb.NewDFTable(s.corpus.Dict())
	for i := 0; i < s.corpus.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bg.AddDoc(s.corpus.DocTerms(textdb.DocID(i)))
	}
	var out []core.Extractor
	for _, n := range names {
		switch n {
		case "NE":
			out = append(out, ner.New(ner.WithGazetteer(gaz)))
		case "Yahoo":
			out = append(out, yterms.New(bg, 12, s.env.clock))
		case "Wikipedia":
			out = append(out, wiki.NewTitleExtractor(s.env.wiki))
		}
	}
	for _, e := range s.opts.ExtraExtractors {
		out = append(out, e)
	}
	return out, nil
}

// buildResources assembles the selected resources (defaults to all).
// dist is the corpus-only model, built by the caller when the selection
// names it (selectsDistributional).
func (s *System) buildResources(dist core.Resource) []core.Resource {
	names := s.opts.Resources
	if len(names) == 0 {
		names = []string{"Google", "WordNet Hypernyms", "Wikipedia Synonyms", "Wikipedia Graph"}
	}
	var out []core.Resource
	for _, n := range names {
		switch n {
		case "Google":
			out = append(out, websearch.NewResource(s.env.engine, 10, 10, s.env.clock))
		case "WordNet Hypernyms":
			out = append(out, wordnet.NewResource(s.env.wnet, 2))
		case "Wikipedia Synonyms":
			out = append(out, wiki.NewSynonymResource(s.env.wiki))
		case "Wikipedia Graph":
			out = append(out, wiki.NewGraphResource(s.env.wiki, 50))
		case "Distributional", "corpus":
			out = append(out, dist)
		}
	}
	for _, r := range s.opts.ExtraResources {
		out = append(out, r)
	}
	return out
}

// selectsDistributional reports whether Options.Resources names the
// corpus-only model.
func (s *System) selectsDistributional() bool {
	return slices.Contains(s.opts.Resources, "Distributional") || slices.Contains(s.opts.Resources, "corpus")
}

// distributional returns the corpus-only context resource over the
// currently indexed documents. The model last built is kept and reused
// until Add grows the corpus, so one model serves as resource and as
// fallback, in extractions and through CoreResources and CoreFallback.
// To build one, Step 1 runs with extractors (nil selects the configured
// ones) to collect per-document important terms, and distctx.Build turns
// their co-occurrence structure into top-N neighbor vectors. The
// extraction cost is paid again when the pipeline proper runs — the
// model has to exist before Step 2 starts, and Step 1 is the cheap stage
// (see StageReport). An empty corpus yields an inert model that answers
// nil for every term. It returns ctx's error once ctx is done.
func (s *System) distributional(ctx context.Context, extractors []core.Extractor) (core.Resource, error) {
	s.distMu.Lock()
	defer s.distMu.Unlock()
	if s.dist != nil && s.distDocs == s.corpus.Len() {
		return s.dist, nil
	}
	if extractors == nil {
		var err error
		if extractors, err = s.buildExtractors(ctx); err != nil {
			return nil, err
		}
	}
	// Extractor degradations are reported when the pipeline proper runs
	// Step 1 again.
	important, _, err := core.IdentifyImportantReport(ctx, s.corpus, extractors, 0, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	// Log-likelihood weighting, not PPMI: the resource ablation
	// (experiments -run resourceablation) shows LLR's preference for
	// evidence mass pulls the high-frequency general terms into the
	// neighbor lists, which is what the subsumption builder needs to
	// recover ancestor structure; PPMI's lift favors rare correlates and
	// leaves the hierarchy flat.
	m, err := distctx.Build(ctx, important, distctx.Config{Weight: distctx.WeightLLR, Workers: s.opts.Workers})
	if err != nil {
		return nil, err
	}
	s.dist, s.distDocs = m, s.corpus.Len()
	return m, nil
}

// CoreExtractors assembles the configured term extractors over the
// currently indexed documents (the Yahoo-style extractor calibrates its
// background statistics against them). Like BrowseEngine, this is a seam
// for in-module consumers — the live ingestion subsystem builds its
// worker pool from it; external users configure extraction through
// Options.
func (s *System) CoreExtractors() []core.Extractor {
	// The background context never ends, so the build cannot fail.
	extractors, _ := s.buildExtractors(context.Background())
	return extractors
}

// CoreResources assembles the configured context-expansion resources; see
// CoreExtractors for the intended consumers.
func (s *System) CoreResources() []core.Resource {
	var dist core.Resource
	if s.selectsDistributional() {
		// The background context never ends, so the build cannot fail.
		dist, _ = s.distributional(context.Background(), nil)
	}
	return s.buildResources(dist)
}

// CoreFallback assembles the corpus-only fallback resource when
// Options.CorpusFallback is set, and returns nil otherwise; the live
// ingestion subsystem passes it through ingest.Config.Fallback so
// streamed documents survive a total external-resource outage too.
func (s *System) CoreFallback() core.Resource {
	if !s.opts.CorpusFallback {
		return nil
	}
	// The background context never ends, so the build cannot fail.
	dist, _ := s.distributional(context.Background(), nil)
	return dist
}

// FacetTerm is one extracted facet term with its statistical evidence.
type FacetTerm struct {
	Term   string
	DF     int     // document frequency in the original database
	DFC    int     // document frequency after context expansion
	ShiftF int     // frequency shift
	ShiftR int     // rank-bin shift
	Score  float64 // Dunning log-likelihood
}

// Degradation records one external dependency (an extractor or a context
// resource) that kept failing after retries during extraction. The
// pipeline proceeds without the failed dependency — its contribution is
// simply absent from the affected documents' term sets — and reports the
// gap here instead of failing the whole run (graceful degradation; see
// README "Failure model").
type Degradation struct {
	// Name is the failed extractor's or resource's name.
	Name string
	// Kind is "extractor" or "resource".
	Kind string
	// Failures counts failed lookups attributed to this dependency.
	Failures int
	// Docs counts the documents whose term sets are missing this
	// dependency's contribution.
	Docs int
	// LastErr is the text of the last error observed.
	LastErr string
}

// Result is the outcome of facet extraction.
type Result struct {
	// Facets are the top-K facet terms, most significant first.
	Facets []FacetTerm
	// Degradations lists external dependencies that failed during
	// extraction; empty when every extractor and resource answered every
	// lookup. A non-empty list means the facets were computed from the
	// surviving dependencies only.
	Degradations []Degradation
	// FallbackLookups counts the (document, term) expansions answered by
	// the corpus-only distributional model because every configured
	// resource failed (only possible with Options.CorpusFallback). 0 on a
	// healthy run.
	FallbackLookups int
	sys             *System
	inner           *core.Result
	stages          *obsv.StageTimer
}

// ExtractFacets runs the three pipeline steps over the indexed documents.
// It is the context-free wrapper around ExtractFacetsContext.
func (s *System) ExtractFacets() (*Result, error) {
	return s.ExtractFacetsContext(context.Background())
}

// ExtractFacetsContext runs the three pipeline steps over the indexed
// documents, honoring cancellation: ctx is checked between stages and
// between documents within the extraction and expansion stages, so a
// canceled call returns promptly with ctx's error.
func (s *System) ExtractFacetsContext(ctx context.Context) (*Result, error) {
	if s.corpus.Len() == 0 {
		return nil, fmt.Errorf("facet: no documents added")
	}
	extractors, err := s.buildExtractors(ctx)
	if err != nil {
		return nil, err
	}
	// One corpus-only model serves as both resource and fallback.
	var dist core.Resource
	if s.selectsDistributional() || s.opts.CorpusFallback {
		if dist, err = s.distributional(ctx, extractors); err != nil {
			return nil, err
		}
	}
	cfg := core.Config{
		Extractors: extractors,
		Resources:  s.buildResources(dist),
		TopK:       s.opts.TopK,
		Workers:    s.opts.Workers,
		Metrics:    s.metrics,
	}
	if s.opts.CorpusFallback {
		cfg.Fallback = dist
	}
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := p.RunContext(ctx, s.corpus)
	if err != nil {
		return nil, err
	}
	res := &Result{sys: s, inner: inner, stages: obsv.NewStageTimer()}
	for _, st := range inner.Stages {
		res.stages.Record(st.Stage, st.Total)
	}
	for _, f := range inner.Facets {
		res.Facets = append(res.Facets, FacetTerm{
			Term: f.Term, DF: f.DF, DFC: f.DFC,
			ShiftF: f.ShiftF, ShiftR: f.ShiftR, Score: f.Score,
		})
	}
	for _, d := range inner.Degradations {
		res.Degradations = append(res.Degradations, Degradation{
			Name: d.Name, Kind: d.Kind, Failures: d.Failures,
			Docs: d.Docs, LastErr: d.LastErr,
		})
	}
	res.FallbackLookups = inner.FallbackLookups
	return res, nil
}

// StageTiming is one pipeline stage's accumulated wall-clock cost.
type StageTiming struct {
	// Stage names the phase: identify_important, derive_context, analyze,
	// and — after BuildHierarchy — build_hierarchy.
	Stage string
	// Calls is how many times the stage ran (hierarchy construction can
	// run more than once with different methods).
	Calls int64
	// Total is the stage's accumulated wall-clock time.
	Total time.Duration
}

// StageReport returns where this extraction's time went, stage by stage
// in execution order — the library-level counterpart of the paper's
// Section V-D efficiency analysis. Hierarchy construction is included
// once BuildHierarchy (or BuildHierarchyWith) has run.
func (r *Result) StageReport() []StageTiming {
	if r.stages == nil {
		return nil
	}
	samples := r.stages.Report()
	out := make([]StageTiming, len(samples))
	for i, s := range samples {
		out[i] = StageTiming{Stage: s.Stage, Calls: s.Calls, Total: s.Total}
	}
	return out
}

// Terms returns the extracted facet terms in rank order.
func (r *Result) Terms() []string {
	out := make([]string, len(r.Facets))
	for i, f := range r.Facets {
		out[i] = f.Term
	}
	return out
}

// Hierarchy is a set of facet trees ready for browsing.
type Hierarchy struct {
	forest   *hierarchy.Forest
	docTerms [][]string
}

// Node is one term in a facet hierarchy.
type Node struct {
	Term     string
	DF       int
	Children []*Node
}

// BuildHierarchy organizes the extracted facet terms into per-facet trees
// over the expanded document collection, using the strategy selected by
// Options.HierarchyBuilder (default: the Sanderson–Croft subsumption
// algorithm the paper uses).
func (r *Result) BuildHierarchy() (*Hierarchy, error) {
	return r.BuildHierarchyWith("")
}

// assignDocTerms computes the document-to-facet assignment
// (core.AssignDocTerms) from this run's important terms and resources. It
// stops with ctx's error once ctx is done.
func (r *Result) assignDocTerms(ctx context.Context, terms []string) ([][]string, error) {
	votes, err := core.ContextVotesContext(ctx, r.inner.Important, r.inner.Resources, nil)
	if err != nil {
		return nil, err
	}
	corpus := r.sys.corpus
	return core.AssignDocTerms(corpus, core.CorroboratedRows(corpus.Dict(), r.inner.Important, votes), terms), nil
}

// Roots returns the top-level facets.
func (h *Hierarchy) Roots() []*Node {
	out := make([]*Node, 0, len(h.forest.Roots))
	for _, r := range h.forest.Roots {
		out = append(out, convertNode(r))
	}
	return out
}

func convertNode(n *hierarchy.Node) *Node {
	out := &Node{Term: n.Term, DF: n.DF}
	for _, c := range n.Children {
		out.Children = append(out.Children, convertNode(c))
	}
	return out
}

// Size returns the number of terms in the hierarchy.
func (h *Hierarchy) Size() int { return h.forest.Size() }

// Browser is the faceted browsing engine over the collection.
type Browser struct {
	iface *browse.Interface
}

// Selection narrows the collection: facet terms are ANDed, the query is
// keyword search (conjunctive), and the optional date range restricts by
// document date (From inclusive, To exclusive; zero values mean open).
type Selection struct {
	Terms []string
	Query string
	From  time.Time
	To    time.Time
}

// FacetCount pairs a facet term with its document count.
type FacetCount struct {
	Term  string
	Count int
}

// Browser builds the browsing engine for a hierarchy.
func (r *Result) Browser(h *Hierarchy) (*Browser, error) {
	iface, err := r.BrowseEngine(h)
	if err != nil {
		return nil, err
	}
	return &Browser{iface: iface}, nil
}

// BrowseEngine exposes the underlying browse.Interface for in-module
// consumers that need the full engine (the HTTP server, the experiment
// harness); external users work through Browser.
func (r *Result) BrowseEngine(h *Hierarchy) (*browse.Interface, error) {
	return browse.Build(r.sys.corpus, h.forest, h.docTerms)
}

// Count returns the number of documents under the facet term (including
// its descendants).
func (b *Browser) Count(term string) int { return b.iface.Count(term) }

func toBrowseSel(sel Selection) browse.Selection {
	return browse.Selection{Terms: sel.Terms, Query: sel.Query, From: sel.From, To: sel.To}
}

// Docs returns the positions of documents matching the selection.
func (b *Browser) Docs(sel Selection) []int {
	ids := b.iface.Docs(toBrowseSel(sel))
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Children returns the child facets of parent ("" for roots) with counts
// under the selection, descending.
func (b *Browser) Children(parent string, sel Selection) []FacetCount {
	var out []FacetCount
	for _, fc := range b.iface.Children(parent, toBrowseSel(sel)) {
		out = append(out, FacetCount{Term: fc.Term, Count: fc.Count})
	}
	return out
}

// DateCount is one bucket of a date histogram.
type DateCount struct {
	Bucket time.Time
	Count  int
}

// DateHistogram buckets matching documents by "day" or "month" — the time
// facet of the interface.
func (b *Browser) DateHistogram(sel Selection, granularity string) ([]DateCount, error) {
	hist, err := b.iface.DateHistogram(toBrowseSel(sel), granularity)
	if err != nil {
		return nil, err
	}
	out := make([]DateCount, len(hist))
	for i, h := range hist {
		out[i] = DateCount{Bucket: h.Bucket, Count: h.Count}
	}
	return out, nil
}

// Document returns an indexed document by position.
func (s *System) Document(i int) Document {
	d := s.corpus.Doc(textdb.DocID(i))
	return Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
}
