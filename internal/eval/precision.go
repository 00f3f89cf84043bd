package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hierarchy"
)

// PrecisionConfig parameterizes the precision experiments (Tables V–VII).
type PrecisionConfig struct {
	// TopK facet terms per cell go into the judged hierarchy.
	TopK int
}

func (c *PrecisionConfig) defaults() {
	if c.TopK == 0 {
		c.TopK = 100
	}
}

// BuildForest constructs the facet hierarchy for a pipeline result using
// the paper's subsumption algorithm over the contextualized database
// (each document's term set = original terms plus corroborated context
// terms).
func BuildForest(dr *DataRun, result *core.Result, topK int) (*hierarchy.Forest, error) {
	terms := result.FacetTermStrings()
	if topK < len(terms) {
		terms = terms[:topK]
	}
	docTerms := ExpandedDocTerms(dr, result, terms)
	b, _ := hierarchy.Lookup("subsumption") // registered by package hierarchy itself
	return b.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{})
}

// ExpandedDocTerms lists, per document, which of the given terms describe
// the document under core.AssignDocTerms: terms occurring in its text,
// plus context terms corroborated by its important terms. This is the
// co-occurrence basis for subsumption and for the faceted-browsing
// document assignment. result must carry the Important and Resources
// fields of the run that produced it.
func ExpandedDocTerms(dr *DataRun, result *core.Result, terms []string) [][]string {
	votes := core.ContextVotes(result.Important, result.Resources, labCache(dr))
	corpus := dr.DS.Corpus
	return core.AssignDocTerms(corpus, core.CorroboratedRows(corpus.Dict(), result.Important, votes), terms)
}

// PrecisionTable reproduces one of Tables V/VI/VII: for every cell, the
// extracted facet terms are organized into a hierarchy and judged by
// qualified annotators; precision is the fraction judged precise (useful
// term, correctly placed) by at least 4 of 5 judges.
func PrecisionTable(dr *DataRun, cfg PrecisionConfig) (*Table, error) {
	cfg.defaults()
	cols := append(append([]string{}, ExtractorOrder...), ExtAll)
	rows := append(append([]string{}, ResourceOrder...), ResAll)
	t := &Table{
		Title:     fmt.Sprintf("Precision of extracted facets, %s data set", dr.DS.Profile.Name),
		RowHeader: "External Resource",
		ColHeader: "Term Extractors",
		Cols:      cols,
	}
	for _, res := range rows {
		row := TableRow{Name: res}
		for _, ext := range cols {
			result := dr.RunCell(ext, res, cfg.TopK)
			forest, err := BuildForest(dr, result, cfg.TopK)
			if err != nil {
				return nil, err
			}
			_, precision := dr.Pool.JudgePrecision(forest)
			row.Values = append(row.Values, precision)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
