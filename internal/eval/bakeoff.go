package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/hierarchy"
)

// Bakeoff is the outcome of scoring every registered hierarchy builder
// on the same extracted terms against the ground-truth ontology and the
// simulated annotator pool: subsumption is one of several viable
// strategies, and this table says what each one buys. It also tests the
// paper's closing conjecture about hierarchy construction ("newer
// algorithms [5] may give even better results", citing Snow et al.):
// the Judged column is the judged precision of Tables V–VII.
type Bakeoff struct {
	Profile string
	Docs    int
	TopK    int
	Rows    []ForestScore
}

// BakeoffOptions configures HierarchyBakeoff.
type BakeoffOptions struct {
	// TopK bounds the facet vocabulary every builder organizes (0 = 100,
	// matching the precision tables).
	TopK int
	// Workers is passed to every builder.
	Workers int
}

// HierarchyBakeoff runs the All×All pipeline cell once, then hands the
// same terms and expanded document assignment to every builder in
// hierarchy.Names(), scoring each with ScoreForest plus wall-clock, and
// then with the annotator pool's judged precision. All builders see one
// shared BuildConfig (the lab's hierarchy.Taxonomy included), so the
// comparison isolates the strategy.
func HierarchyBakeoff(ctx context.Context, dr *DataRun, opts BakeoffOptions) (*Bakeoff, error) {
	topK := opts.TopK
	if topK == 0 {
		topK = 100
	}
	result := dr.RunCell(ExtAll, ResAll, topK)
	terms := result.FacetTermStrings()
	docTerms := ExpandedDocTerms(dr, result, terms)

	evidence, chains := hierarchy.Taxonomy(dr.Lab.WordNet, dr.Lab.Wiki)
	cfg := hierarchy.BuildConfig{Workers: opts.Workers, Evidence: evidence, Chains: chains}

	bk := &Bakeoff{Profile: dr.DS.Profile.Name, Docs: dr.DS.Corpus.Len(), TopK: topK}
	for _, name := range hierarchy.Names() {
		b, ok := hierarchy.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("eval: builder %q vanished from registry", name)
		}
		start := time.Now()
		forest, err := b.Build(ctx, terms, docTerms, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: builder %q: %w", name, err)
		}
		row := ScoreForest(dr.Pool, forest, terms)
		row.Builder = name
		row.Millis = float64(time.Since(start).Nanoseconds()) / 1e6
		_, row.Judged = dr.Pool.JudgePrecision(forest)
		bk.Rows = append(bk.Rows, row)
	}
	return bk, nil
}

// Format renders the per-builder table.
func (b *Bakeoff) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %6s %6s %6s %7s %7s %7s %9s %7s %7s %9s\n",
		"Builder", "Nodes", "Roots", "MaxD", "MeanD", "Branch", "Orphan", "Precision", "Recall", "Judged", "Millis")
	sb.WriteString(strings.Repeat("-", 96) + "\n")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-14s %6d %6d %6d %7.2f %7.2f %6.0f%% %9.3f %7.3f %7.3f %9.1f\n",
			r.Builder, r.Nodes, r.Roots, r.MaxDepth, r.MeanDepth, r.Branching,
			100*r.OrphanRate, r.Precision, r.Recall, r.Judged, r.Millis)
	}
	return sb.String()
}

// BakeoffBench is the BENCH_hierarchy.json envelope, following the
// repository's bench-trajectory convention (cf. BENCH_serve.json,
// BENCH_cluster.json): a benchmark name, the GOMAXPROCS it ran at, and
// one point per builder.
type BakeoffBench struct {
	Benchmark  string         `json:"benchmark"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Profile    string         `json:"profile"`
	Docs       int            `json:"docs"`
	TopK       int            `json:"top_k"`
	Points     []BakeoffPoint `json:"points"`
}

// BakeoffPoint is one builder's scored outcome in the bench envelope.
type BakeoffPoint struct {
	Builder    string  `json:"builder"`
	Nodes      int     `json:"nodes"`
	Roots      int     `json:"roots"`
	MaxDepth   int     `json:"max_depth"`
	MeanDepth  float64 `json:"mean_depth"`
	Branching  float64 `json:"branching"`
	OrphanRate float64 `json:"orphan_rate"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	Judged     float64 `json:"judged"`
	Millis     float64 `json:"millis"`
}

// Bench converts the bake-off into its BENCH_hierarchy.json envelope.
func (b *Bakeoff) Bench() BakeoffBench {
	env := BakeoffBench{
		Benchmark:  "hierarchybakeoff",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Profile:    b.Profile,
		Docs:       b.Docs,
		TopK:       b.TopK,
	}
	for _, r := range b.Rows {
		env.Points = append(env.Points, BakeoffPoint{
			Builder:    r.Builder,
			Nodes:      r.Nodes,
			Roots:      r.Roots,
			MaxDepth:   r.MaxDepth,
			MeanDepth:  r.MeanDepth,
			Branching:  r.Branching,
			OrphanRate: r.OrphanRate,
			Precision:  r.Precision,
			Recall:     r.Recall,
			Judged:     r.Judged,
			Millis:     r.Millis,
		})
	}
	return env
}
