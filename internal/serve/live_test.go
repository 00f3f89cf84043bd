package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/textdb"
)

// Minimal deterministic pipeline substrates for live-mode tests.
type wordExtractor struct{}

func (wordExtractor) Name() string { return "words" }

func (wordExtractor) Extract(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

type mapResource struct {
	m map[string][]string
}

func (mapResource) Name() string                   { return "world" }
func (r mapResource) Context(term string) []string { return r.m[term] }

func liveWorld() mapResource {
	return mapResource{m: map[string][]string{
		"chirac":   {"politicians", "france"},
		"paris":    {"france", "locations"},
		"merkel":   {"politicians", "germany"},
		"berlin":   {"germany", "locations"},
		"yankees":  {"sports", "teams"},
		"baseball": {"sports"},
	}}
}

func liveDocs(n, offset int) []*textdb.Document {
	texts := []string{
		"Chirac spoke in Paris about the budget",
		"Merkel hosted a Berlin summit on trade",
		"The Yankees played baseball into the night",
	}
	base := time.Date(2006, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*textdb.Document, n)
	for i := range out {
		out[i] = &textdb.Document{
			Title:  fmt.Sprintf("story %d", offset+i),
			Source: "wire",
			Date:   base.AddDate(0, 0, (offset+i)%28),
			Text:   texts[(offset+i)%len(texts)],
		}
	}
	return out
}

func liveIngester(t *testing.T, epochDocs int, store *textdb.Store) *ingest.Ingester {
	t.Helper()
	ing, err := ingest.New(ingest.Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{liveWorld()},
		Workers:    4,
		EpochDocs:  epochDocs,
		Store:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

func ingestBody(docs []*textdb.Document) *bytes.Reader {
	req := IngestRequest{}
	for _, d := range docs {
		req.Documents = append(req.Documents, IngestDoc{
			Title: d.Title, Source: d.Source, Date: d.Date.Format("2006-01-02"), Text: d.Text,
		})
	}
	body, _ := json.Marshal(req)
	return bytes.NewReader(body)
}

// TestIngestEndpoints exercises POST /api/ingest and GET
// /api/ingest/stats end to end, including payload validation.
func TestIngestEndpoints(t *testing.T) {
	ing := liveIngester(t, 10, nil)
	if err := ing.Bootstrap(liveDocs(6, 0), false); err != nil {
		t.Fatal(err)
	}
	s := New(ing.Current(), "live test")
	s.EnableIngest(ing)
	ing.SetOnPublish(s.Publish)
	ing.Start()
	defer ing.Close(context.Background())

	post := func(body *bytes.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", body)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}

	rec := post(ingestBody(liveDocs(14, 6)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != 14 {
		t.Fatalf("ingest response %s", rec.Body.String())
	}

	// Malformed payloads are rejected with JSON errors.
	for name, body := range map[string]string{
		"not json":   "{",
		"no docs":    `{"documents":[]}`,
		"empty text": `{"documents":[{"title":"x","text":"  "}]}`,
		"bad date":   `{"documents":[{"title":"x","text":"words","date":"tomorrow"}]}`,
	} {
		rec := post(bytes.NewReader([]byte(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != ErrCodeBadRequest || er.Error.Message == "" {
			t.Errorf("%s: body %q is not the unified error envelope", name, rec.Body.String())
		}
	}

	// Stats surface after the intake settles.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ing.Stats().DocsIngested == 20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/ingest/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st ingest.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.DocsIngested != 20 {
		t.Fatalf("stats docs_ingested = %d, want 20", st.DocsIngested)
	}
	if st.CacheHits == 0 {
		t.Fatalf("repeated entities produced no cache hits: %+v", st)
	}
}

// TestConcurrentIngestAndQuery hammers the read API while documents
// stream in — run under -race it proves there are no torn reads across
// the atomic interface swap, and functionally it asserts every response
// is internally consistent: a facet count can never exceed the epoch's
// total, and totals only grow.
func TestConcurrentIngestAndQuery(t *testing.T) {
	const bootstrapDocs = 15
	ing := liveIngester(t, 10, nil)
	if err := ing.Bootstrap(liveDocs(bootstrapDocs, 0), false); err != nil {
		t.Fatal(err)
	}
	s := New(ing.Current(), "live race")
	s.EnableIngest(ing)
	ing.SetOnPublish(s.Publish)
	ing.Start()

	const (
		readers = 4
		batches = 8
		perPost = 25
	)
	var posted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/api/v1/facets", "/api/v1/docs?limit=5", "/api/v1/facets?terms=france", "/api/v1/ingest/stats", "/api/v1/metrics"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(g+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
				if strings.HasPrefix(path, "/api/v1/facets") && !strings.Contains(path, "terms") {
					var resp FacetsResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
					// Consistency across the swap: an epoch's facet counts
					// never exceed its own total, and the total never
					// exceeds everything accepted so far.
					hi := bootstrapDocs + int(posted.Load())
					if resp.Total < bootstrapDocs || resp.Total > hi {
						t.Errorf("torn total %d outside [%d, %d]", resp.Total, bootstrapDocs, hi)
						return
					}
					for _, fc := range resp.Facets {
						if fc.Count > resp.Total {
							t.Errorf("facet %q count %d exceeds total %d", fc.Term, fc.Count, resp.Total)
							return
						}
					}
				}
			}
		}(g)
	}

	for b := 0; b < batches; b++ {
		// Count the batch before posting it: the ingester may publish
		// the batch's epoch before the POST returns.
		posted.Add(perPost)
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", ingestBody(liveDocs(perPost, bootstrapDocs+b*perPost)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest batch %d: status %d: %s", b, rec.Code, rec.Body.String())
		}
	}

	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	total := bootstrapDocs + batches*perPost
	var final FacetsResponse
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/facets", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if final.Total != total {
		t.Fatalf("final total %d, want %d", final.Total, total)
	}
	st := ing.Stats()
	if st.Epochs < 2 {
		t.Fatalf("completed %d epochs, want >= 2", st.Epochs)
	}
	if st.CacheHitRate == 0 {
		t.Fatal("resource cache never hit")
	}

	// The shared registry saw the whole run: per-route HTTP series plus
	// the ingester's gauges, all snapshotted concurrently above.
	snap := s.Metrics().Snapshot()
	if snap.Counters["http.requests.ingest"] != int64(batches) {
		t.Errorf("ingest requests = %d, want %d", snap.Counters["http.requests.ingest"], batches)
	}
	if got := snap.Gauges["ingest.docs_published"]; got != int64(total) {
		t.Errorf("ingest.docs_published gauge = %d, want %d", got, total)
	}
	if snap.Gauges["ingest.epochs"] < 2 {
		t.Errorf("ingest.epochs gauge = %d, want >= 2", snap.Gauges["ingest.epochs"])
	}
	// The bootstrap epoch predates EnableIngest's registry wiring, so only
	// the epochs after it are timed.
	if h := snap.Histograms["ingest.epoch_duration"]; h.Count < 1 {
		t.Errorf("epoch_duration histogram count = %d, want >= 1", h.Count)
	}
}
