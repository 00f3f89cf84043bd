package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

func testServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	corpus := textdb.NewCorpus()
	base := time.Date(2005, 11, 1, 0, 0, 0, 0, time.UTC)
	texts := []string{
		"chirac spoke in paris about the budget",
		"berlin hosted a summit on trade",
		"the election in france drew crowds",
		"a baseball game in boston went long",
	}
	docTerms := [][]string{
		{"europe", "france"},
		{"europe", "germany"},
		{"europe", "france"},
		{"sports"},
	}
	for i, text := range texts {
		corpus.Add(&textdb.Document{
			Title: "story " + text[:7], Source: "wire", Text: text,
			Date: base.AddDate(0, 0, i),
		})
	}
	terms := []string{"europe", "france", "germany", "sports"}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{MinDF: 1, MaxChildDFFraction: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	iface, err := browse.Build(corpus, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	return New(iface, "Test Archive", opts...)
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestFacetsEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/api/v1/facets")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp FacetsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 || len(resp.Facets) == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	// Restricted by a facet term.
	rec = get(t, s, "/api/v1/facets?terms=europe&parent=europe")
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Total != 3 {
		t.Fatalf("europe total = %d", resp.Total)
	}
}

func TestDocsEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/api/v1/docs?terms=france&q=election")
	var resp DocsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 1 || len(resp.Docs) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.Contains(resp.Docs[0].Snippet, "election") {
		t.Fatalf("snippet = %q", resp.Docs[0].Snippet)
	}
	if rec := get(t, s, "/api/v1/docs?limit=0"); rec.Code != http.StatusBadRequest {
		t.Fatal("bad limit accepted")
	}
}

func TestDatesEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/api/v1/dates?granularity=day")
	var resp []DateBucket
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp) != 4 {
		t.Fatalf("buckets = %+v", resp)
	}
	if rec := get(t, s, "/api/v1/dates?granularity=decade"); rec.Code != http.StatusBadRequest {
		t.Fatal("bad granularity accepted")
	}
	// Date-range restriction.
	rec = get(t, s, "/api/v1/dates?granularity=day&from=2005-11-02&to=2005-11-04")
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp) != 2 {
		t.Fatalf("range buckets = %+v", resp)
	}
}

func TestCrossEndpoint(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/api/v1/cross?a=europe&b=sports")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/api/v1/cross?a=europe"); rec.Code != http.StatusBadRequest {
		t.Fatal("missing b accepted")
	}
	if rec := get(t, s, "/api/v1/cross?a=europe&b=nonexistent"); rec.Code != http.StatusBadRequest {
		t.Fatal("unknown facet accepted")
	}
}

func TestIndexPage(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Test Archive", "europe", "documents match"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index page missing %q", want)
		}
	}
	// Drill-down link state.
	rec = get(t, s, "/?terms=europe")
	body = rec.Body.String()
	if !strings.Contains(body, "3 documents match") {
		t.Fatalf("drilled page: %s", body)
	}
	if rec := get(t, s, "/nonexistent"); rec.Code != http.StatusNotFound {
		t.Fatal("unknown path should 404")
	}
}

func TestBadDateRejected(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/api/v1/docs?from=notadate"); rec.Code != http.StatusBadRequest {
		t.Fatal("bad date accepted")
	}
}

// TestErrorResponsesAreJSON: every 4xx carries the unified envelope
// {"error":{"code","message"}}, and limit validation rejects negative,
// zero, huge, and overflowing values.
func TestErrorResponsesAreJSON(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/api/v1/docs?limit=-5",
		"/api/v1/docs?limit=0",
		"/api/v1/docs?limit=billion",
		"/api/v1/docs?limit=501",
		"/api/v1/docs?limit=99999999999999999999", // overflows int64
		"/api/v1/docs?from=notadate",
		"/api/v1/facets?limit=0",
		"/api/v1/dates?granularity=decade",
		"/api/v1/cross?a=europe",
	} {
		rec := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q", path, ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != ErrCodeBadRequest || er.Error.Message == "" {
			t.Errorf("%s: body %q is not the unified error envelope", path, rec.Body.String())
		}
	}
	// A valid limit still works.
	if rec := get(t, s, "/api/v1/docs?limit=2"); rec.Code != http.StatusOK {
		t.Fatalf("valid limit rejected: %d", rec.Code)
	}
}

// TestPublishSwapsInterface: Publish atomically replaces what the
// handlers serve.
func TestPublishSwapsInterface(t *testing.T) {
	s := testServer(t)
	var before FacetsResponse
	json.Unmarshal(get(t, s, "/api/v1/facets").Body.Bytes(), &before)
	if before.Total != 4 {
		t.Fatalf("before swap: %d docs", before.Total)
	}

	corpus := textdb.NewCorpus()
	corpus.Add(&textdb.Document{Title: "solo", Source: "wire", Text: "one lonely document", Date: time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)})
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), []string{"misc"}, [][]string{{"misc"}}, hierarchy.BuildConfig{MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	iface, err := browse.Build(corpus, forest, [][]string{{"misc"}})
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(iface)

	var after FacetsResponse
	json.Unmarshal(get(t, s, "/api/v1/facets").Body.Bytes(), &after)
	if after.Total != 1 {
		t.Fatalf("after swap: %d docs, want 1", after.Total)
	}
}
