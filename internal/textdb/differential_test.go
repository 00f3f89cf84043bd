package textdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// checkRanks compares the table's rank table and top-term lists against
// the comparison-sort references.
func checkRanks(t *testing.T, table *DFTable) {
	t.Helper()
	got, want := table.Ranks(), refRanks(table)
	if got.MaxRank() != want.MaxRank() {
		t.Fatalf("MaxRank = %d, reference %d", got.MaxRank(), want.MaxRank())
	}
	for id := TermID(-1); int(id) <= table.dict.Len(); id++ {
		if g, w := got.Rank(id), want.Rank(id); g != w {
			t.Fatalf("Rank(%d) = %d, reference %d", id, g, w)
		}
	}
	for _, k := range []int{0, 1, 3, 1 << 20} {
		for _, minDF := range []int{-1, 0, 1, 2, 5} {
			if g, w := table.TopTerms(k, minDF), refTopTerms(table, k, minDF); !reflect.DeepEqual(g, w) {
				t.Fatalf("TopTerms(%d, %d) = %v, reference %v", k, minDF, g, w)
			}
		}
	}
}

// TestRanksMatchReferenceAsDictionaryGrows: the dictionary keeps its
// text order between rankings, so each ranking after the first merges in
// only the terms interned since. Terms arrive in batches, some sorting
// before every earlier term and some between them, and two tables share
// the dictionary the way D and C(D) do.
func TestRanksMatchReferenceAsDictionaryGrows(t *testing.T) {
	rng := xrand.New(7)
	d := NewDictionary()
	tables := []*DFTable{NewDFTable(d), NewDFTable(d)}
	for batch := 0; batch < 40; batch++ {
		for i := rng.Intn(30); i > 0; i-- {
			d.Intern(fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(500)))
		}
		for doc := rng.Intn(8); doc > 0; doc-- {
			row := map[TermID]bool{}
			for i := rng.Intn(12); i > 0 && d.Len() > 0; i-- {
				row[TermID(rng.Intn(d.Len()))] = true
			}
			ids := make([]TermID, 0, len(row))
			for id := range row {
				ids = append(ids, id)
			}
			tables[rng.Intn(2)].AddDoc(ids)
		}
		for _, table := range tables {
			checkRanks(t, table)
		}
	}
	ids := d.SortedIDs()
	if len(ids) != d.Len() {
		t.Fatalf("SortedIDs holds %d of %d terms", len(ids), d.Len())
	}
	for i := 1; i < len(ids); i++ {
		if a, b := d.String(ids[i-1]), d.String(ids[i]); a >= b {
			t.Fatalf("SortedIDs out of order: %q before %q", a, b)
		}
	}
}

// FuzzRanks drives random DF tables over a dictionary interned in random
// batches and checks Ranks and TopTerms against the references after
// every batch. Two bytes make one operation: intern a batch of terms
// drawn from a small alphabet (so terms repeat, tie and prefix each
// other), count a document into one of two tables, or check.
func FuzzRanks(f *testing.F) {
	f.Add([]byte{0, 5, 7, 3, 9, 1, 4, 1, 6, 2, 0, 0, 3, 2, 4, 2})
	f.Add([]byte{0, 7, 200, 100, 50, 25, 12, 6, 3, 1, 1, 1, 3, 1, 0, 0, 1, 2, 6, 2})
	f.Add([]byte{1, 3, 2, 0, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDictionary()
		tables := []*DFTable{NewDFTable(d), NewDFTable(d)}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for len(data) >= 2 {
			op, arg := next(), next()
			switch op % 3 {
			case 0:
				for i := int(arg%8) + 1; i > 0; i-- {
					b := next()
					term := []byte("abc")[:b%4]
					for j := range term {
						term[j] = 'a' + (b>>(2+2*j))%3
					}
					d.Intern(string(term))
				}
			case 1:
				if d.Len() == 0 {
					continue
				}
				seen := map[TermID]bool{}
				var row []TermID
				for i := int(arg % 16); i > 0; i-- {
					id := TermID(int(next()) % d.Len())
					if !seen[id] {
						seen[id] = true
						row = append(row, id)
					}
				}
				tables[arg%2].AddDoc(row)
			case 2:
				checkRanks(t, tables[arg%2])
			}
		}
		for _, table := range tables {
			checkRanks(t, table)
		}
	})
}

// TestSnapshotIndexAndRanksWhileIngesting is the live-ingestion shape
// under -race: one goroutine adds documents to the live corpus (under the
// lock ingestion holds for it) and interns context terms (without it),
// while another snapshots the corpus and, off the lock, indexes the
// snapshot twice at once and ranks its terms. Snapshots share the dictionary with its
// kept text order, and the keyword-index rows with the live corpus.
func TestSnapshotIndexAndRanksWhileIngesting(t *testing.T) {
	var mu sync.Mutex
	live := NewCorpus()
	const docs = 120
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < docs; i++ {
			mu.Lock()
			id := live.Add(&Document{
				Title: fmt.Sprintf("Story %d on %s", i, []string{"markets", "elections", "storms"}[i%3]),
				Text:  fmt.Sprintf("Report number %d says the %d delegates met in city%d. Talks on trade %d resumed.", i, i%7, i%11, i%5),
			})
			live.DocTerms(id)
			mu.Unlock()
			live.Dict().Intern(fmt.Sprintf("context term %d", i))
		}
	}()
	check := func() {
		mu.Lock()
		snap := live.Snapshot()
		mu.Unlock()
		want := refBuildIndex(snap)
		// Two readers index the same snapshot at once, as two requests
		// may; neither may write what the other reads.
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := BuildIndex(snap); !reflect.DeepEqual(got.postings, want.postings) ||
					!reflect.DeepEqual(got.docLen, want.docLen) || got.totalLen != want.totalLen {
					t.Errorf("index over a %d-document snapshot differs from the reference", snap.Len())
				}
			}()
		}
		table := NewDFTable(snap.Dict())
		for i := 0; i < snap.Len(); i++ {
			table.AddDoc(snap.DocTerms(DocID(i)))
		}
		checkRanks(t, table)
		wg.Wait()
	}
	for {
		select {
		case <-done:
			check() // the whole corpus
			return
		default:
			check()
		}
	}
}
