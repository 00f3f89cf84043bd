package textdb

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// snapshot twice at once and ranks its terms. Snapshots share the
// dictionary with its kept text order, and the posting lists' arrays
// with the live corpus's keyword index.
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
				gp, gl, gt := IndexState(BuildIndex(snap))
				wp, wl, wt := IndexState(want)
				if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gl, wl) || gt != wt {
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

// TestOlderIndexVersionWhileExtending: an index version keeps answering
// as it did when it was taken while the live corpus goes on extending,
// in place, the posting lists it shares with that version. One goroutine
// adds documents and snapshots them; two readers ask the first
// snapshot's index about every word the documents will ever hold, and
// must get the reference index's answers over that snapshot.
func TestOlderIndexVersionWhileExtending(t *testing.T) {
	doc := func(i int) *Document {
		return &Document{
			Title: fmt.Sprintf("Bulletin %d on %s", i, []string{"harbors", "tariffs", "floods"}[i%3]),
			Text:  fmt.Sprintf("Desk%d reports item%d: the %d pilots and crew%d met again.", i%5, i, i%7, i%13),
		}
	}
	const first, total = 20, 140
	var words []string
	for i := 0; i < total; i++ {
		d := doc(i)
		for _, tok := range strings.Fields(d.Title + " " + d.Text) {
			words = append(words, strings.Trim(tok, ".:"))
		}
	}
	answers := func(ix *Index, n int) []string {
		out := make([]string, len(words))
		for i, w := range words {
			out[i] = fmt.Sprintf("%s %v %v %d", w, ix.Search(w, n), ix.SearchAll(w, n), ix.DocFreq(w))
		}
		return out
	}

	live := NewCorpus()
	for i := 0; i < first; i++ {
		live.Add(doc(i))
	}
	old := live.Snapshot()
	want := answers(refBuildIndex(old), first)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := first; i < total; i++ {
			live.Add(doc(i))
			if i%3 == 0 {
				live.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if got := answers(BuildIndex(old), first); !slices.Equal(got, want) {
					t.Error("the first snapshot's index answered differently while the live corpus extended its lists")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done
	gp, gl, gt := IndexState(BuildIndex(old))
	wp, wl, wt := IndexState(refBuildIndex(old))
	if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gl, wl) || gt != wt {
		t.Fatal("the first snapshot's index differs from the reference after the live corpus grew")
	}
	gp, gl, gt = IndexState(BuildIndex(live))
	wp, wl, wt = IndexState(refBuildIndex(live))
	if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gl, wl) || gt != wt {
		t.Fatal("the live corpus's index differs from the reference")
	}
}
