package facet

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/parallel"
)

// This file implements the paper's extension points (Section VII): custom
// term extractors and expansion resources — the "domain-specific
// vocabularies and ontologies (e.g., from the Taxonomy Warehouse)"
// integration — and the evidence-combination hierarchy construction the
// paper points to as future work (Snow, Jurafsky & Ng 2006).

// TermExtractor identifies important terms in a document; plug custom
// implementations in through Options.ExtraExtractors.
type TermExtractor interface {
	Name() string
	Extract(text string) []string
}

// ContextResource returns context terms for an important term; plug
// custom implementations in through Options.ExtraResources.
type ContextResource interface {
	Name() string
	Context(term string) []string
}

// NewGlossaryExtractor builds a term extractor from a controlled
// vocabulary: terms appearing in the glossary are marked important
// (longest match first). Use it to run the pipeline over domain text
// (financial filings, medical literature) with a domain glossary.
func NewGlossaryExtractor(name string, vocabulary []string) (TermExtractor, error) {
	return core.NewGlossaryExtractor(name, vocabulary)
}

// NewGlossaryResource builds an expansion resource from a thesaurus map
// (term → related terms), the Section VII "financial ontologies and
// thesauri" scenario.
func NewGlossaryResource(name string, thesaurus map[string][]string) (ContextResource, error) {
	return core.NewGlossaryResource(name, thesaurus)
}

// BuildHierarchyWith is BuildHierarchy with an explicit construction
// method: any registered hierarchy.Builder name (see hierarchy.Names).
// The empty string selects Options.HierarchyBuilder, then "subsumption".
// Its wall-clock cost is recorded as the build_hierarchy stage of
// Result.StageReport.
func (r *Result) BuildHierarchyWith(method string) (*Hierarchy, error) {
	return r.BuildHierarchyWithContext(context.Background(), method)
}

// BuildHierarchyWithContext is BuildHierarchyWith with cancellation:
// document assignment checks ctx between documents and the sharded
// O(terms²) parent-selection sweep between terms, so a caller-imposed
// deadline aborts hierarchy construction promptly instead of completing
// the full assignment and pairwise pass.
func (r *Result) BuildHierarchyWithContext(ctx context.Context, method string) (*Hierarchy, error) {
	if r.stages != nil {
		defer r.stages.Start("build_hierarchy")()
	}
	name := method
	if name == "" {
		name = r.sys.opts.HierarchyBuilder
	}
	if name == "" {
		name = "subsumption"
	}
	b, ok := hierarchy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("facet: unknown hierarchy builder %q (registered: %s)",
			name, strings.Join(hierarchy.Names(), ", "))
	}
	terms := r.Terms()
	docTerms, err := r.assignDocTerms(ctx, terms)
	if err != nil {
		return nil, err
	}
	forest, err := b.Build(ctx, terms, docTerms, r.sys.hierarchyBuildConfig())
	if err != nil {
		return nil, err
	}
	return &Hierarchy{forest: forest, docTerms: docTerms}, nil
}

// hierarchyBuildConfig assembles the shared BuildConfig every registered
// builder draws from: the session's threshold and worker knobs plus the
// environment's taxonomy wiring (hierarchy.Taxonomy: evidence sources for
// the "evidence" builder, hypernym chains for "treemin"). Builders ignore
// the options that do not apply to them, so one config serves the whole
// registry.
func (s *System) hierarchyBuildConfig() hierarchy.BuildConfig {
	evidence, chains := hierarchy.Taxonomy(s.env.wnet, s.env.wiki)
	return hierarchy.BuildConfig{
		Threshold: s.opts.SubsumptionThreshold,
		Workers:   parallel.Workers(s.opts.Workers),
		Metrics:   s.metrics, // surfaces hierarchy.pairs.* pruning counters; nil disables
		Evidence:  evidence,
		Chains:    chains,
	}
}

// WriteDOT renders the hierarchy as a Graphviz digraph for visualization.
func (h *Hierarchy) WriteDOT(w io.Writer, name string) error {
	return hierarchy.WriteDOT(w, h.forest, name)
}

// WriteJSON serializes the hierarchy (term, df, children) as JSON.
func (h *Hierarchy) WriteJSON(w io.Writer) error {
	return hierarchy.WriteJSON(w, h.forest)
}

// FormatTree renders the hierarchy as an indented text tree.
func (h *Hierarchy) FormatTree() string {
	return hierarchy.FormatTree(h.forest)
}
