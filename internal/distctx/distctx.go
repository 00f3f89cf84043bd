// Package distctx builds a corpus-only context resource: distributional
// co-occurrence vectors over the corpus's own extracted important terms,
// standing in for the external resources (Google, Wikipedia, WordNet)
// that the paper's Step 2 uses to derive context. Bilu et al. ("What if
// we had no Wikipedia?", PAPERS.md) show domain-independent term
// extraction from the corpus alone is viable; this package applies the
// same idea to context derivation. Terms that appear in the same
// documents (or within a positional window of each other) are associated,
// pairs are weighted by PPMI or Dunning log-likelihood
// (internal/stats), and each term's top-N neighbors become its context —
// exactly the []string shape core.Resource.Context returns, so the rest
// of the pipeline (Step 3 comparative analysis, parallel sharding,
// caching, ingest epochs, snapshots) works unchanged.
//
// Build is deterministic for any worker count: the vocabulary is
// interned in corpus order on the calling goroutine, per-worker pair
// counters are merged additively (order-independent), and neighbor lists
// are sorted by (weight desc, term asc) before truncation.
package distctx

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// Weighting names accepted by Config.Weight.
const (
	WeightPPMI = "ppmi"
	WeightLLR  = "llr"
)

// DefaultName is the resource name the model reports unless
// Config.Name overrides it.
const DefaultName = "Distributional"

// Config tunes the distributional model. The zero value selects the
// defaults noted per field.
type Config struct {
	// TopN is the number of neighbors kept per term (0 = 10). A term's
	// context is at most TopN terms.
	TopN int
	// MinDF is the minimum document frequency for a term to receive a
	// vector (0 = 2). Hapax terms have no reliable distribution.
	MinDF int
	// MinCo is the minimum number of co-occurring documents for a pair
	// to be scored (0 = 2). Single-document coincidences are noise.
	MinCo int
	// Window restricts co-occurrence to term pairs within this many
	// positions of each other in a document's important-term sequence
	// (after intra-document deduplication). 0 means whole-document
	// co-occurrence, the paper-corpus default.
	Window int
	// Weight selects the association measure: WeightPPMI (default) or
	// WeightLLR.
	Weight string
	// Workers bounds build parallelism (<=0 = GOMAXPROCS).
	Workers int
	// Name overrides the resource name ("" = DefaultName).
	Name string
}

func (c Config) withDefaults() Config {
	if c.TopN == 0 {
		c.TopN = 10
	}
	if c.MinDF == 0 {
		c.MinDF = 2
	}
	if c.MinCo == 0 {
		c.MinCo = 2
	}
	if c.Weight == "" {
		c.Weight = WeightPPMI
	}
	if c.Name == "" {
		c.Name = DefaultName
	}
	return c
}

// Model is a built distributional context resource. It is read-only
// after Build and safe for concurrent use; it satisfies core.Resource
// structurally.
type Model struct {
	name      string
	neighbors map[string][]string
}

// Name reports the resource name for degradation records, cache keys,
// and the Result.Resources list.
func (m *Model) Name() string { return m.name }

// Context returns the term's top-N distributional neighbors (nil when
// the term is below MinDF or has no scored pairs). The returned slice
// is shared and must not be mutated — the same contract the other
// resources follow.
func (m *Model) Context(term string) []string {
	if m == nil {
		return nil
	}
	return m.neighbors[term]
}

// Len reports how many terms have a non-empty context — the model's
// effective coverage, surfaced by the resource-ablation report.
func (m *Model) Len() int {
	if m == nil {
		return 0
	}
	return len(m.neighbors)
}

// Build constructs the model from per-document important-term lists —
// the exact [][]string that core.IdentifyImportantReport produces — so the
// corpus-only path reuses Step 1's output rather than re-tokenizing.
// Duplicate terms within a document are collapsed (document frequency
// semantics: a pair co-occurs at most once per document), preserving
// first-occurrence order so Window offsets stay meaningful.
func Build(ctx context.Context, important [][]string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Weight != WeightPPMI && cfg.Weight != WeightLLR {
		return nil, fmt.Errorf("distctx: unknown weight %q (want %q or %q)", cfg.Weight, WeightPPMI, WeightLLR)
	}
	if cfg.TopN < 0 || cfg.MinDF < 0 || cfg.MinCo < 0 || cfg.Window < 0 {
		return nil, fmt.Errorf("distctx: negative knob in %+v", cfg)
	}

	// Intern the vocabulary sequentially in corpus order so term ids —
	// and therefore pair keys — are deterministic, and collapse each
	// document to its unique term-id sequence while counting df.
	ids := make(map[string]int)
	var terms []string
	df := []int{}
	docs := make([][]int32, len(important))
	var seen []int // term id -> last doc index that counted it
	for d, docTerms := range important {
		uniq := docs[d][:0]
		for _, t := range docTerms {
			id, ok := ids[t]
			if !ok {
				id = len(terms)
				ids[t] = id
				terms = append(terms, t)
				df = append(df, 0)
				seen = append(seen, -1)
			}
			if seen[id] == d {
				continue
			}
			seen[id] = d
			df[id]++
			uniq = append(uniq, int32(id))
		}
		docs[d] = uniq
	}
	n := len(important)

	// Count co-occurring documents per pair: per-worker maps keyed by
	// (loID<<32 | hiID), merged additively — integer addition commutes,
	// so the merge is deterministic regardless of scheduling.
	workers := parallel.Workers(cfg.Workers)
	counts := make([]map[uint64]int32, workers)
	for w := range counts {
		counts[w] = make(map[uint64]int32)
	}
	err := parallel.For(ctx, len(docs), workers, func(worker, d int) {
		pairs := counts[worker]
		uniq := docs[d]
		for i := 0; i < len(uniq); i++ {
			hi := len(uniq)
			if cfg.Window > 0 && i+cfg.Window+1 < hi {
				hi = i + cfg.Window + 1
			}
			for j := i + 1; j < hi; j++ {
				a, b := uniq[i], uniq[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				pairs[uint64(a)<<32|uint64(b&0x7fffffff)]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	merged := counts[0]
	for _, m := range counts[1:] {
		for k, v := range m {
			merged[k] += v
		}
	}

	// Score qualifying pairs and accumulate candidate neighbors on both
	// endpoints.
	type cand struct {
		id     int32
		weight float64
	}
	cands := make([][]cand, len(terms))
	for k, co := range merged {
		if int(co) < cfg.MinCo {
			continue
		}
		a := int32(k >> 32)
		b := int32(k & 0x7fffffff)
		if df[a] < cfg.MinDF || df[b] < cfg.MinDF {
			continue
		}
		var w float64
		switch cfg.Weight {
		case WeightLLR:
			w = stats.AssocLLR(int(co), df[a], df[b], n)
		default:
			w = stats.PPMI(int(co), df[a], df[b], n)
		}
		if w <= 0 {
			continue
		}
		cands[a] = append(cands[a], cand{id: b, weight: w})
		cands[b] = append(cands[b], cand{id: a, weight: w})
	}

	neighbors := make(map[string][]string)
	for id, cs := range cands {
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].weight != cs[j].weight {
				return cs[i].weight > cs[j].weight
			}
			return terms[cs[i].id] < terms[cs[j].id]
		})
		if len(cs) > cfg.TopN {
			cs = cs[:cfg.TopN]
		}
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = terms[c.id]
		}
		neighbors[terms[id]] = out
	}
	return &Model{name: cfg.Name, neighbors: neighbors}, nil
}
