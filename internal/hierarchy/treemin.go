package hierarchy

import (
	"context"
	"sort"
)

// ChainProvider supplies is-a ancestor chains (nearest first) for a term,
// e.g. WordNet hypernym chains via wordnet.DB. Terms without a chain
// return nil.
type ChainProvider interface {
	Chain(term string) []string
}

// ChainFunc adapts a function to ChainProvider.
type ChainFunc func(term string) []string

// Chain implements ChainProvider.
func (f ChainFunc) Chain(term string) []string { return f(term) }

// treeminBuilder is the registered "treemin" strategy, the Stoica–Hearst
// approach the paper cites as prior work (HLT-NAACL 2004/2007): each term
// contributes its hypernym path from cfg.Chains; the paths are merged
// into one tree, and the tree is then minimized by eliminating every
// internal node that is not itself an input term and has exactly one
// child. Terms with no chain (every term, when cfg.Chains is nil) become
// roots — which is precisely the named-entity weakness the paper's
// technique addresses. docTerms and the co-occurrence knobs are ignored,
// so there is no pairwise co-occurrence sweep to prune: the
// candidate-pair generator (pairIndex) and the hierarchy.pairs.* counters
// do not apply here, and the build is its own dense reference. Cost is
// O(Σ chain length), not O(terms²).
type treeminBuilder struct{}

// Name implements Builder.
func (treeminBuilder) Name() string { return "treemin" }

// Build implements Builder.
func (treeminBuilder) Build(ctx context.Context, terms []string, _ [][]string, cfg BuildConfig) (*Forest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chains := cfg.Chains
	if chains == nil {
		chains = ChainFunc(func(string) []string { return nil })
	}
	forest := &Forest{index: map[string]*Node{}}
	nodeFor := func(term string) *Node {
		if n, ok := forest.index[term]; ok {
			return n
		}
		n := &Node{Term: term}
		forest.index[term] = n
		return n
	}
	inputSet := map[string]bool{}
	for _, t := range terms {
		inputSet[t] = true
	}
	// Merge paths root→...→term.
	for _, t := range terms {
		chain := chains.Chain(t)
		path := make([]string, 0, len(chain)+1)
		for i := len(chain) - 1; i >= 0; i-- {
			path = append(path, chain[i])
		}
		path = append(path, t)
		var parent *Node
		for _, term := range path {
			n := nodeFor(term)
			if parent != nil && n.Parent == nil && n != parent && !isAncestorNode(n, parent) {
				n.Parent = parent
				parent.Children = append(parent.Children, n)
			}
			parent = n
		}
	}
	for _, n := range forest.index {
		if n.Parent == nil {
			forest.Roots = append(forest.Roots, n)
		}
	}
	// Minimization: splice out non-input single-child internal nodes.
	var minimize func(n *Node) *Node
	minimize = func(n *Node) *Node {
		for i, c := range n.Children {
			n.Children[i] = minimize(c)
			n.Children[i].Parent = n
		}
		if !inputSet[n.Term] && len(n.Children) == 1 {
			child := n.Children[0]
			child.Parent = n.Parent
			delete(forest.index, n.Term)
			return child
		}
		return n
	}
	for i, r := range forest.Roots {
		m := minimize(r)
		m.Parent = nil
		forest.Roots[i] = m
	}
	// Drop non-input leaf roots (chains whose term was pruned elsewhere).
	roots := forest.Roots[:0]
	for _, r := range forest.Roots {
		if len(r.Children) == 0 && !inputSet[r.Term] {
			delete(forest.index, r.Term)
			continue
		}
		roots = append(roots, r)
	}
	forest.Roots = roots
	sort.Slice(forest.Roots, func(i, j int) bool { return forest.Roots[i].Term < forest.Roots[j].Term })
	forest.Walk(func(n *Node, _ int) {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Term < n.Children[j].Term })
	})
	return forest, nil
}

func isAncestorNode(a, b *Node) bool {
	for cur := b; cur != nil; cur = cur.Parent {
		if cur == a {
			return true
		}
	}
	return false
}
