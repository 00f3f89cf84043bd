package hierarchy

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/obsv"
)

// Builder constructs a facet hierarchy over extracted terms. terms is the
// ranked facet vocabulary; docTerms lists, for every document, which of
// the terms occur in it (strings not in terms are ignored by builders
// that use co-occurrence; taxonomy-only builders may ignore docTerms
// entirely). Builders must be deterministic — the same inputs and config
// yield the same Forest at every worker count — and must honor ctx
// cancellation by returning ctx's error instead of a partial forest.
//
// Implementations register themselves with Register and are selected by
// name through Lookup — the facade (`facet.Options.HierarchyBuilder`),
// the serving binaries' -hierarchy flags, and the experiments bake-off
// all dispatch through the registry, so adding a strategy is one new
// file plus one Register call.
type Builder interface {
	// Name is the registry key, a short lowercase identifier
	// ("subsumption", "evidence", "treemin", "agglomerative").
	Name() string
	// Build constructs the forest.
	Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error)
}

// BuildConfig is the shared configuration for every Builder. Common
// knobs (document-frequency floor, worker count, threshold) live at the
// top level; builder-specific options are nested and ignored by builders
// they do not apply to. The zero value selects sensible defaults
// everywhere, so BuildConfig{} is a valid config for every builder.
type BuildConfig struct {
	// Threshold is the builder's main attachment threshold: θ in
	// P(x|y) ≥ θ for subsumption, the combined-score floor for evidence
	// (unless Evidence.Threshold overrides it). 0 selects the builder's
	// standard default (0.8 for subsumption and evidence); both builders
	// reject a threshold outside [0,1], NaN included.
	Threshold float64
	// MinDF drops terms observed in fewer documents; co-occurrence
	// estimates below a handful of documents are noise. 0 selects 2.
	// Taxonomy-only builders (treemin) ignore it.
	MinDF int
	// MaxChildDFFraction: a term present in more than this fraction of
	// the collection is a facet DIMENSION — it stays a root and is never
	// attached as a child (at such densities P(x|y) ≥ θ holds against
	// almost any x by saturation, not by meaning). 0 selects 0.6;
	// set >= 1 to disable. Only the subsumption builder applies it.
	MaxChildDFFraction float64
	// Workers shards each builder's pairwise sweep across a bounded
	// worker pool. <= 1 (the zero value) runs sequentially; the forest
	// is identical for every worker count.
	Workers int
	// Metrics, when set, receives the sweep's pair-pruning counters —
	// hierarchy.pairs.{candidate,evaluated,skipped} and the
	// hierarchy.sweep.terms gauge (see pairCounts). nil disables
	// instrumentation.
	Metrics *obsv.Registry

	// Evidence holds the evidence-combination builder's options.
	Evidence EvidenceOptions
	// Chains supplies is-a ancestor chains for the tree-minimization
	// builder; nil means no terms have chains (every term is a root).
	Chains ChainProvider
	// Agglomerative holds the co-occurrence clustering builder's options.
	Agglomerative AgglomerativeOptions
}

// EvidenceOptions configures the "evidence" builder (nested in
// BuildConfig; other builders ignore it).
type EvidenceOptions struct {
	// SubsumptionWeight scales the co-occurrence evidence P(x|y); the
	// remaining sources contribute with their own weights. 0 selects 1.0.
	SubsumptionWeight float64
	// Weights per evidence source, aligned with Sources; nil gives every
	// source weight 1.
	Weights []float64
	// Sources are the external taxonomy evidence sources to combine.
	// They must be safe for concurrent use when Workers > 1.
	Sources []TaxonomicEvidence
	// Threshold overrides BuildConfig.Threshold for the combined score;
	// 0 falls back to BuildConfig.Threshold, then to 0.8.
	Threshold float64
}

// AgglomerativeOptions configures the "agglomerative" builder (nested in
// BuildConfig; other builders ignore it).
type AgglomerativeOptions struct {
	// MinSimilarity stops the merge loop: clusters are merged while the
	// best average-linkage Jaccard similarity is at least this value.
	// 0 selects 0.25; higher values yield flatter, purer forests.
	MinSimilarity float64
}

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a builder to the registry under b.Name(). It panics on a
// nil builder, an empty name, or a duplicate registration — all three are
// programmer errors at package-init time.
func Register(b Builder) {
	if b == nil {
		panic("hierarchy: Register(nil)")
	}
	name := b.Name()
	if name == "" {
		panic("hierarchy: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("hierarchy: duplicate builder %q", name))
	}
	registry[name] = b
}

// Lookup returns the registered builder with the given name.
func Lookup(name string) (Builder, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names returns the registered builder names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(subsumptionBuilder{})
	Register(evidenceBuilder{})
	Register(treeminBuilder{})
	Register(agglomerativeBuilder{})
}

// termStats is the co-occurrence scaffolding shared by every builder that
// estimates relations from the corpus: deduplicated term list, per-term
// posting bitsets, document frequencies, and the df-floor survivor list
// in deterministic (lexicographic) order.
type termStats struct {
	uniq  []string
	idx   map[string]int
	sets  []*bitset.Set
	df    []int
	alive []int
	nDocs int
}

func newTermStats(terms []string, docTerms [][]string, minDF int) *termStats {
	st := &termStats{idx: make(map[string]int, len(terms)), nDocs: len(docTerms)}
	st.uniq = make([]string, 0, len(terms))
	for _, t := range terms {
		if _, dup := st.idx[t]; !dup {
			st.idx[t] = len(st.uniq)
			st.uniq = append(st.uniq, t)
		}
	}
	st.sets = make([]*bitset.Set, len(st.uniq))
	for i := range st.sets {
		st.sets[i] = bitset.New(st.nDocs)
	}
	for d, ts := range docTerms {
		for _, t := range ts {
			if i, ok := st.idx[t]; ok {
				st.sets[i].Set(d)
			}
		}
	}
	st.df = make([]int, len(st.uniq))
	for i, s := range st.sets {
		st.df[i] = s.Count()
	}
	for i := range st.uniq {
		if st.df[i] >= minDF {
			st.alive = append(st.alive, i)
		}
	}
	sort.Slice(st.alive, func(a, b int) bool { return st.uniq[st.alive[a]] < st.uniq[st.alive[b]] })
	return st
}

// assembleForest turns a parent assignment over st.alive into a Forest:
// it guards against cycles (walking up from every term and cutting
// back-edges), attaches children, and orders children and roots by
// descending DF then term — the deterministic convention every
// co-occurrence builder shares.
func assembleForest(st *termStats, parentOf map[int]int) *Forest {
	nodes := make(map[int]*Node, len(st.alive))
	for _, i := range st.alive {
		nodes[i] = &Node{Term: st.uniq[i], DF: st.df[i]}
	}
	// Cycle guard: pairwise relations with directionality cannot create
	// 2-cycles on exact ties, but transitive chains through
	// floating-point equalities are broken defensively by walking up and
	// cutting back-edges.
	for _, y := range st.alive {
		seen := map[int]bool{y: true}
		cur, ok := parentOf[y]
		for ok {
			if seen[cur] {
				delete(parentOf, y) // cut: y becomes a root
				break
			}
			seen[cur] = true
			cur, ok = parentOf[cur]
		}
	}
	forest := &Forest{index: map[string]*Node{}}
	for _, i := range st.alive {
		forest.index[st.uniq[i]] = nodes[i]
	}
	for _, y := range st.alive {
		if p, ok := parentOf[y]; ok {
			nodes[y].Parent = nodes[p]
			nodes[p].Children = append(nodes[p].Children, nodes[y])
		} else {
			forest.Roots = append(forest.Roots, nodes[y])
		}
	}
	// Deterministic child and root order: by descending DF then term.
	less := func(a, b *Node) bool {
		if a.DF != b.DF {
			return a.DF > b.DF
		}
		return a.Term < b.Term
	}
	forest.Walk(func(n *Node, _ int) {
		sort.Slice(n.Children, func(i, j int) bool { return less(n.Children[i], n.Children[j]) })
	})
	sort.Slice(forest.Roots, func(i, j int) bool { return less(forest.Roots[i], forest.Roots[j]) })
	return forest
}
