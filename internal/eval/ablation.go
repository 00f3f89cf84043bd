package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distctx"
	"repro/internal/stats"
)

// AblationResult compares design choices of Step 3 (Section IV-C): the
// ranking statistic (log-likelihood vs. chi-square vs. raw frequency
// shift) and the shift gating (both tests vs. each alone).
type AblationResult struct {
	Variants []AblationVariant
}

// AblationVariant is one configuration's outcome.
type AblationVariant struct {
	Name string
	// Candidates passing the gates.
	Candidates int
	// UsefulAtK: fraction of the top-K ranked terms that denote true
	// facets (the cheap usefulness oracle, without a judging round).
	UsefulAtK float64
	// RecallAtK against the ground truth.
	RecallAtK float64
}

// Ablation runs the variants on the All×All cell of a dataset.
func Ablation(dr *DataRun, topK int) (*AblationResult, error) {
	if topK == 0 {
		topK = 100
	}
	important := dr.Important(ExtAll)
	// The background context never ends and the lab's resources never fail.
	contextTerms, _, _, _ := core.DeriveContextFallbackReport(context.Background(), important, dr.Lab.Resources(ResourceOrder...), nil, labCache(dr), 0)
	gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(1000))

	variants := []struct {
		name string
		opts core.AnalyzeOptions
	}{
		{"log-likelihood + both shifts (paper)", core.AnalyzeOptions{}},
		{"chi-square + both shifts", core.AnalyzeOptions{Scorer: stats.ChiSquare}},
		{"raw Shift_f ranking + both shifts", core.AnalyzeOptions{Scorer: func(df, dfC, n int) float64 {
			return float64(dfC - df)
		}}},
		{"log-likelihood, Shift_f only", core.AnalyzeOptions{SkipShiftR: true}},
		{"log-likelihood, Shift_r only", core.AnalyzeOptions{SkipShiftF: true}},
		{"log-likelihood, no shift gates", core.AnalyzeOptions{SkipShiftF: true, SkipShiftR: true}},
	}
	res := &AblationResult{}
	for _, v := range variants {
		r := core.AnalyzeWith(dr.DS.Corpus, contextTerms, topK, v.opts)
		terms := r.FacetTermStrings()
		res.Variants = append(res.Variants, AblationVariant{
			Name:       v.name,
			Candidates: len(r.Candidates),
			UsefulAtK:  dr.Pool.UsefulRate(terms),
			RecallAtK:  gt.Recall(terms),
		})
	}
	return res, nil
}

// labCache exposes the lab's shared resource cache to the ablations.
func labCache(dr *DataRun) *core.ResourceCache { return dr.Lab.cache }

// ResourceAblationRow is one resource subset's scored outcome: the Step-3
// candidate yield, the top-K term quality (usefulness and ground-truth
// term recall), and the quality of the subsumption hierarchy built from
// those terms (facet precision/recall via ScoreForest).
type ResourceAblationRow struct {
	// Subset is the row label: "none", "corpus-only", "external-only",
	// "mixed", or "external - <resource>" pricing rows.
	Subset string
	// Resources lists the context resources the row ran with.
	Resources []string
	// Candidates passing both shift gates.
	Candidates int
	// UsefulAtK: fraction of the top-K terms denoting true facets.
	UsefulAtK float64
	// TermRecall of the top-K terms against the validated ground truth.
	TermRecall float64
	// FacetPrecision / FacetRecall / OrphanRate score the subsumption
	// forest built from the row's terms (see ForestScore).
	FacetPrecision float64
	FacetRecall    float64
	OrphanRate     float64
	// Millis is the row's wall-clock: context derivation + analysis +
	// hierarchy construction + scoring.
	Millis float64
}

// ResourceAblationResult is the full subset table.
type ResourceAblationResult struct {
	Profile string
	Docs    int
	TopK    int
	Rows    []ResourceAblationRow
}

// ResourceAblation prices what each context resource buys: it runs the
// full pipeline cell (All extractors, TopK facet terms, subsumption
// hierarchy, ground-truth scoring) for every interesting resource subset
// — no context at all, the corpus-only distributional model, the four
// external resources, the mixed set, and leave-one-out pricing rows —
// entirely offline (the corpus-only row needs no external service, and
// the "external" services are the lab's synthesized substrates). The
// distributional model is built once from the same Step-1 important
// terms every row shares.
func ResourceAblation(ctx context.Context, dr *DataRun, topK, workers int) (*ResourceAblationResult, error) {
	if topK == 0 {
		topK = 100
	}
	important := dr.Important(ExtAll)
	gt := dr.Pool.BuildGroundTruth(dr.DS, dr.SampleIndices(1000))
	// LLR weighting, matching the facade's corpus-only resource: its
	// evidence-mass preference recovers ancestor structure that PPMI's
	// rare-correlate lift does not (this report is where that was
	// established).
	model, err := distctx.Build(ctx, important, distctx.Config{Weight: distctx.WeightLLR, Workers: workers})
	if err != nil {
		return nil, err
	}

	external := dr.Lab.Resources(ResourceOrder...)
	subsets := []struct {
		name      string
		resources []core.Resource
	}{
		{"none", nil},
		{"corpus-only", []core.Resource{model}},
		{"external-only", external},
		{"mixed", append(append([]core.Resource{}, external...), model)},
	}
	for i, name := range ResourceOrder {
		rest := make([]core.Resource, 0, len(external)-1)
		rest = append(rest, external[:i]...)
		rest = append(rest, external[i+1:]...)
		subsets = append(subsets, struct {
			name      string
			resources []core.Resource
		}{"external - " + name, rest})
	}

	res := &ResourceAblationResult{Profile: dr.DS.Profile.Name, Docs: dr.DS.Corpus.Len(), TopK: topK}
	for _, s := range subsets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		contextTerms, _, _, err := core.DeriveContextFallbackReport(ctx, important, s.resources, nil, labCache(dr), workers)
		if err != nil {
			return nil, err
		}
		r := core.AnalyzeWith(dr.DS.Corpus, contextTerms, topK, core.AnalyzeOptions{Workers: workers})
		r.Important = important
		r.Context = contextTerms
		r.Resources = s.resources
		terms := r.FacetTermStrings()
		forest, err := BuildForest(dr, r, topK)
		if err != nil {
			return nil, err
		}
		score := ScoreForest(dr.Pool, forest, terms)
		res.Rows = append(res.Rows, ResourceAblationRow{
			Subset:         s.name,
			Resources:      resourceNames(s.resources),
			Candidates:     len(r.Candidates),
			UsefulAtK:      dr.Pool.UsefulRate(terms),
			TermRecall:     gt.Recall(terms),
			FacetPrecision: score.Precision,
			FacetRecall:    score.Recall,
			OrphanRate:     score.OrphanRate,
			Millis:         float64(time.Since(start).Nanoseconds()) / 1e6,
		})
	}
	return res, nil
}

func resourceNames(rs []core.Resource) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name()
	}
	return out
}

// Format renders the subset table.
func (r *ResourceAblationResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s, %d docs, top-%d\n", r.Profile, r.Docs, r.TopK)
	fmt.Fprintf(&sb, "%-26s %10s %9s %10s %10s %9s %8s %9s\n",
		"Subset", "Candidates", "Useful@K", "TermRec", "FacetPrec", "FacetRec", "Orphan", "Millis")
	sb.WriteString(strings.Repeat("-", 98) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-26s %10d %9.3f %10.3f %10.3f %9.3f %7.0f%% %9.1f\n",
			row.Subset, row.Candidates, row.UsefulAtK, row.TermRecall,
			row.FacetPrecision, row.FacetRecall, 100*row.OrphanRate, row.Millis)
	}
	return sb.String()
}

// AblationBench is the BENCH_ablation.json envelope, following the
// repository's bench-trajectory convention (cf. BakeoffBench).
type AblationBench struct {
	Benchmark  string          `json:"benchmark"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Profile    string          `json:"profile"`
	Docs       int             `json:"docs"`
	TopK       int             `json:"top_k"`
	Points     []AblationPoint `json:"points"`
}

// AblationPoint is one subset row in the bench envelope.
type AblationPoint struct {
	Subset         string   `json:"subset"`
	Resources      []string `json:"resources"`
	Candidates     int      `json:"candidates"`
	UsefulAtK      float64  `json:"useful_at_k"`
	TermRecall     float64  `json:"term_recall"`
	FacetPrecision float64  `json:"facet_precision"`
	FacetRecall    float64  `json:"facet_recall"`
	OrphanRate     float64  `json:"orphan_rate"`
	Millis         float64  `json:"millis"`
}

// Bench converts the report into its BENCH_ablation.json envelope.
func (r *ResourceAblationResult) Bench() AblationBench {
	env := AblationBench{
		Benchmark:  "resourceablation",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Profile:    r.Profile,
		Docs:       r.Docs,
		TopK:       r.TopK,
	}
	for _, row := range r.Rows {
		env.Points = append(env.Points, AblationPoint{
			Subset:         row.Subset,
			Resources:      row.Resources,
			Candidates:     row.Candidates,
			UsefulAtK:      row.UsefulAtK,
			TermRecall:     row.TermRecall,
			FacetPrecision: row.FacetPrecision,
			FacetRecall:    row.FacetRecall,
			OrphanRate:     row.OrphanRate,
			Millis:         row.Millis,
		})
	}
	return env
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %12s %12s %12s\n", "Variant", "Candidates", "Useful@K", "Recall@K")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, v := range r.Variants {
		fmt.Fprintf(&sb, "%-42s %12d %12.3f %12.3f\n", v.Name, v.Candidates, v.UsefulAtK, v.RecallAtK)
	}
	return sb.String()
}
