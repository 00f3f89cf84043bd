package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/textdb"
)

// fuzzVocab is the closed term universe the fuzzer draws from; 8 terms
// is enough for every shift/gating combination while keeping the mutator
// productive.
var fuzzVocab = [8]string{"paris", "france", "europe", "chirac", "iraq", "war", "sports", "trial"}

// buildFuzzTables decodes fuzz bytes into a document collection — two
// bytes per document: a bitmask of original terms and a bitmask of
// context terms — and accumulates the DF tables exactly the way the
// pipeline does (AddDoc over ExpandDocTermsAppend), so df(t) ≤ |D| and
// dfC ≥ df hold by construction for every input.
func buildFuzzTables(data []byte) (dict *textdb.Dictionary, dfD, dfC *textdb.DFTable, ctxSet map[textdb.TermID]bool, numDocs int) {
	dict = textdb.NewDictionary()
	dfD = textdb.NewDFTable(dict)
	dfC = textdb.NewDFTable(dict)
	ctxSet = map[textdb.TermID]bool{}
	scratch := map[textdb.TermID]bool{}
	const maxDocs = 64
	for d := 0; d+1 < len(data) && numDocs < maxDocs; d += 2 {
		var orig []textdb.TermID
		var ctx []string
		for b := 0; b < 8; b++ {
			if data[d]&(1<<b) != 0 {
				orig = append(orig, dict.Intern(fuzzVocab[b]))
			}
			if data[d+1]&(1<<b) != 0 {
				ctx = append(ctx, fuzzVocab[b])
			}
		}
		dfD.AddDoc(orig)
		dfC.AddDoc(ExpandDocTermsAppend(nil, dict, orig, ctx, scratch, ctxSet))
		numDocs++
	}
	return dict, dfD, dfC, ctxSet, numDocs
}

// FuzzAnalyzeTables drives the Step-3 candidate selection over arbitrary
// collections and checks the paper's invariants on every output row: the
// shift gates really gate (Shift_f > 0, Shift_r > 0), the reported
// shifts are consistent with the reported frequencies, the score is
// finite and non-negative, the ranking is the documented total order,
// Facets is a bounded prefix of Candidates — and the sharded scoring
// path agrees with the sequential one on the same tables.
func FuzzAnalyzeTables(f *testing.F) {
	f.Add([]byte{0x03, 0x07, 0x01, 0x0f, 0x10, 0x30}, 5, uint8(4))
	f.Add([]byte{0xff, 0xff, 0x00, 0xff, 0x55, 0xaa, 0x0f, 0xf0}, 0, uint8(9))
	f.Add([]byte{}, -3, uint8(0))
	f.Add([]byte{0x01, 0x01}, 1, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, topK int, workers uint8) {
		dict, dfD, dfC, ctxSet, numDocs := buildFuzzTables(data)
		res := AnalyzeTables(dict, dfD, dfC, ctxSet, numDocs, topK, AnalyzeOptions{})

		wantTopK := topK
		if wantTopK <= 0 {
			wantTopK = 200
		}
		if len(res.Facets) > wantTopK {
			t.Fatalf("len(Facets) = %d exceeds topK %d", len(res.Facets), wantTopK)
		}
		if len(res.Facets) > len(res.Candidates) {
			t.Fatalf("more facets (%d) than candidates (%d)", len(res.Facets), len(res.Candidates))
		}
		if !reflect.DeepEqual(res.Facets, res.Candidates[:len(res.Facets)]) {
			t.Fatal("Facets is not a prefix of Candidates")
		}
		for i, c := range res.Candidates {
			if c.ShiftF <= 0 {
				t.Fatalf("candidate %q passed with Shift_f = %d", c.Term, c.ShiftF)
			}
			if c.ShiftR <= 0 {
				t.Fatalf("candidate %q passed with Shift_r = %d", c.Term, c.ShiftR)
			}
			if c.ShiftF != c.DFC-c.DF {
				t.Fatalf("candidate %q: ShiftF %d != DFC-DF %d", c.Term, c.ShiftF, c.DFC-c.DF)
			}
			if c.DF < 0 || c.DFC > numDocs {
				t.Fatalf("candidate %q: df %d..%d outside [0,%d]", c.Term, c.DF, c.DFC, numDocs)
			}
			if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) || c.Score < 0 {
				t.Fatalf("candidate %q: score %v not finite non-negative", c.Term, c.Score)
			}
			if i > 0 {
				prev := res.Candidates[i-1]
				if prev.Score < c.Score || (prev.Score == c.Score && prev.Term >= c.Term) {
					t.Fatalf("ranking violates (Score desc, Term asc) at %d: %+v then %+v", i, prev, c)
				}
			}
		}

		// Sharded scoring must reproduce the sequential ranking exactly.
		if w := int(workers%8) + 2; true {
			par := AnalyzeTables(dict, dfD, dfC, ctxSet, numDocs, topK, AnalyzeOptions{Workers: w})
			if !reflect.DeepEqual(res.Candidates, par.Candidates) {
				t.Fatalf("workers=%d candidate ranking diverges from sequential", w)
			}
		}
	})
}

// TestFuzzSeedsAnalyzeTables replays the fuzz seed corpus as a plain
// test so the invariants run on every `go test` even without -fuzz.
func TestFuzzSeedsAnalyzeTables(t *testing.T) {
	seeds := [][]byte{
		{0x03, 0x07, 0x01, 0x0f, 0x10, 0x30},
		{0xff, 0xff, 0x00, 0xff, 0x55, 0xaa, 0x0f, 0xf0},
		{},
		{0x01, 0x01},
	}
	for _, data := range seeds {
		dict, dfD, dfC, ctxSet, numDocs := buildFuzzTables(data)
		res := AnalyzeTables(dict, dfD, dfC, ctxSet, numDocs, 10, AnalyzeOptions{})
		for _, c := range res.Candidates {
			if c.ShiftF <= 0 || c.ShiftR <= 0 {
				t.Fatalf("seed %x: candidate %+v fails shift gates", data, c)
			}
		}
	}
}
