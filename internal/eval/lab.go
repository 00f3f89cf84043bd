// Package eval contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (Section V), plus the two
// ablations called out in DESIGN.md. Each runner produces a printable
// structure whose layout matches the paper's.
package eval

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mturk"
	"repro/internal/ner"
	"repro/internal/newsgen"
	"repro/internal/ontology"
	"repro/internal/remote"
	"repro/internal/textdb"
	"repro/internal/websearch"
	"repro/internal/wiki"
	"repro/internal/wordnet"
	"repro/internal/yterms"
)

// Extractor and resource display names, matching the paper's tables.
const (
	ExtNE        = "NE"
	ExtYahoo     = "Yahoo"
	ExtWikipedia = "Wikipedia"

	ResGoogle    = "Google"
	ResWordNet   = "WordNet Hypernyms"
	ResWikiSyn   = "Wikipedia Synonyms"
	ResWikiGraph = "Wikipedia Graph"
)

// ExtractorOrder and ResourceOrder are the paper's table orders.
var (
	ExtractorOrder = []string{ExtNE, ExtYahoo, ExtWikipedia}
	ResourceOrder  = []string{ResGoogle, ResWordNet, ResWikiSyn, ResWikiGraph}
)

// Lab is the shared experimental apparatus: the ground-truth knowledge
// base and every substrate built over it. One Lab serves all datasets.
type Lab struct {
	KB      *ontology.KB
	Wiki    *wiki.Wiki
	WordNet *wordnet.DB
	Engine  *websearch.Engine
	Clock   *remote.Clock

	resources map[string]core.Resource
	cache     *core.ResourceCache
	seed      uint64
}

// NewLab builds the apparatus. The WordNet database is generated into the
// real file format and loaded back through the parser.
func NewLab(seed uint64) (*Lab, error) {
	kb, err := ontology.Build(ontology.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("eval: build kb: %w", err)
	}
	w, err := wiki.Build(kb, wiki.Config{Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("eval: build wiki: %w", err)
	}
	wn, err := wordnet.FromIsa(ontology.WordNetLexicon(kb))
	if err != nil {
		return nil, fmt.Errorf("eval: build wordnet: %w", err)
	}
	lab := &Lab{
		KB:      kb,
		Wiki:    w,
		WordNet: wn,
		Engine:  websearch.NewEngineFromWiki(w),
		Clock:   remote.NewClock(),
		cache:   core.NewResourceCache(),
		seed:    seed,
	}
	lab.resources = map[string]core.Resource{
		ResGoogle:    websearch.NewResource(lab.Engine, 10, 10, lab.Clock),
		ResWordNet:   wordnet.NewResource(wn, 2),
		ResWikiSyn:   wiki.NewSynonymResource(w),
		ResWikiGraph: wiki.NewGraphResource(w, 50),
	}
	return lab, nil
}

// Resource returns a resource by paper name; it panics on unknown names
// (names are compile-time constants).
func (l *Lab) Resource(name string) core.Resource {
	r, ok := l.resources[name]
	if !ok {
		panic("eval: unknown resource " + name)
	}
	return r
}

// Resources maps names to resources in ResourceOrder.
func (l *Lab) Resources(names ...string) []core.Resource {
	out := make([]core.Resource, len(names))
	for i, n := range names {
		out[i] = l.Resource(n)
	}
	return out
}

// Gazetteer returns the entity names and variants the NE tagger is primed
// with (the stand-in for LingPipe's trained model).
func (l *Lab) Gazetteer() []string {
	var names []string
	for _, e := range l.KB.Entities() {
		names = append(names, e.Display)
		names = append(names, e.Variants...)
	}
	sort.Strings(names)
	return names
}

// DataRun binds the lab to one generated dataset and caches per-extractor
// important-term identification, so that every cell of a table pays for
// extraction once.
type DataRun struct {
	Lab  *Lab
	DS   *newsgen.Dataset
	Pool *mturk.Pool

	extractors map[string]core.Extractor
	important  map[string][][]string
}

// NewDataRun generates the dataset for a profile and prepares extractors.
func (l *Lab) NewDataRun(p newsgen.Profile, seed uint64) (*DataRun, error) {
	ds, err := newsgen.Generate(l.KB, p, seed)
	if err != nil {
		return nil, err
	}
	return l.NewDataRunFrom(ds, seed)
}

// NewDataRunFrom wraps an existing dataset.
func (l *Lab) NewDataRunFrom(ds *newsgen.Dataset, seed uint64) (*DataRun, error) {
	// Background statistics for the Yahoo-style extractor: the corpus's
	// own document frequencies.
	bg := textdb.NewDFTable(ds.Corpus.Dict())
	for i := 0; i < ds.Corpus.Len(); i++ {
		bg.AddDoc(ds.Corpus.DocTerms(textdb.DocID(i)))
	}
	dr := &DataRun{
		Lab:  l,
		DS:   ds,
		Pool: mturk.NewPool(l.KB, mturk.Config{Seed: seed + 100}),
		extractors: map[string]core.Extractor{
			ExtNE:        ner.New(ner.WithGazetteer(l.Gazetteer())),
			ExtYahoo:     yterms.New(bg, 12, l.Clock),
			ExtWikipedia: wiki.NewTitleExtractor(l.Wiki),
		},
		important: map[string][][]string{},
	}
	return dr, nil
}

// Extractor returns an extractor by paper name.
func (dr *DataRun) Extractor(name string) core.Extractor {
	e, ok := dr.extractors[name]
	if !ok {
		panic("eval: unknown extractor " + name)
	}
	return e
}

// ExtAll selects all three extractors.
const ExtAll = "All"

// ResAll selects all four resources.
const ResAll = "All"

// Important returns (computing once) the per-document important terms for
// an extractor configuration: a single extractor name or ExtAll.
func (dr *DataRun) Important(extractor string) [][]string {
	if cached, ok := dr.important[extractor]; ok {
		return cached
	}
	// The background context never ends and the lab's extractors never
	// fail, so Step 1 returns neither an error nor degradations.
	out, _, _ := core.IdentifyImportantReport(context.Background(), dr.DS.Corpus, dr.extractorSet(extractor), 0, 0)
	dr.important[extractor] = out
	return out
}

// extractorSet resolves an extractor configuration name to extractors,
// in ExtractorOrder for ExtAll.
func (dr *DataRun) extractorSet(extractor string) []core.Extractor {
	if extractor != ExtAll {
		return []core.Extractor{dr.Extractor(extractor)}
	}
	out := make([]core.Extractor, len(ExtractorOrder))
	for i, name := range ExtractorOrder {
		out[i] = dr.Extractor(name)
	}
	return out
}

// resourceSet resolves a resource configuration name to resources.
func (dr *DataRun) resourceSet(resource string) []core.Resource {
	if resource == ResAll {
		return dr.Lab.Resources(ResourceOrder...)
	}
	return []core.Resource{dr.Lab.Resource(resource)}
}

// RunCell executes the pipeline for one (extractor config, resource
// config) cell and returns the analysis result.
func (dr *DataRun) RunCell(extractor, resource string, topK int) *core.Result {
	important := dr.Important(extractor)
	// The background context never ends and the lab's resources never fail.
	contextTerms, _, _, _ := core.DeriveContextFallbackReport(context.Background(), important, dr.resourceSet(resource), nil, dr.Lab.cache, 0)
	res := core.AnalyzeWith(dr.DS.Corpus, contextTerms, topK, core.AnalyzeOptions{})
	res.Important = important
	res.Context = contextTerms
	res.Resources = dr.resourceSet(resource)
	return res
}

// SampleIndices returns up to n story indices (the paper annotates a
// 1,000-story random sample of the larger datasets; we take a
// deterministic prefix, which is equivalent for generated data).
func (dr *DataRun) SampleIndices(n int) []int {
	if n > dr.DS.Corpus.Len() {
		n = dr.DS.Corpus.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
