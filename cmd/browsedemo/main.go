// Command browsedemo builds a faceted browsing interface over a generated
// news archive and walks through OLAP-style interactions: root facet
// counts, drill-down, keyword+facet combination, and a slice-and-dice
// cross-tabulation (the Section V-F scenario).
package main

import (
	"flag"
	"fmt"
	"log"

	facet "repro"
)

func main() {
	log.SetFlags(0)
	docs := flag.Int("docs", 400, "number of documents")
	seed := flag.Uint64("seed", 42, "seed")
	flag.Parse()

	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := env.GenerateNewsCorpus("SNYT", *docs, *seed+1)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := facet.NewSystem(env, facet.Options{TopK: 120})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range corpus {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		log.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		log.Fatal(err)
	}
	b, err := res.Browser(h)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Archive of %d documents, %d facet terms extracted.\n\n", sys.Len(), len(res.Facets))
	fmt.Println("Top-level facets:")
	roots := b.Children("", facet.Selection{})
	for i, fc := range roots {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-28s %4d docs\n", fc.Term, fc.Count)
	}
	if len(roots) == 0 {
		return
	}

	top := roots[0].Term
	fmt.Printf("\nDrill into %q:\n", top)
	sel := facet.Selection{Terms: []string{top}}
	for i, fc := range b.Children(top, sel) {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-28s %4d docs\n", fc.Term, fc.Count)
	}

	fmt.Printf("\nCombine facet %q with a keyword query:\n", top)
	query := "summit"
	combined := b.Docs(facet.Selection{Terms: []string{top}, Query: query})
	fmt.Printf("  facet=%q AND query=%q -> %d docs\n", top, query, len(combined))
	for i, d := range combined {
		if i >= 3 {
			break
		}
		fmt.Printf("    %s\n", sys.Document(d).Title)
	}

	if len(roots) >= 2 {
		a, c := roots[0].Term, roots[1].Term
		fmt.Printf("\nSlice-and-dice: documents under both %q and %q: %d\n",
			a, c, len(b.Docs(facet.Selection{Terms: []string{a, c}})))
	}
}
