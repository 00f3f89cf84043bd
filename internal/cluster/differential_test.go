package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/resilient"
	"repro/internal/serve"
	"repro/internal/textdb"
)

// clusterFixture builds a corpus big enough that a 3-way consistent-hash
// partition puts a meaningful slice on every shard, with facet terms in
// subsumption relationships (so the forest has depth), spread dates, and
// keyword-bearing text.
func clusterFixture(t testing.TB, nDocs int) *browse.Interface {
	t.Helper()
	cities := []string{"paris", "berlin", "boston", "london", "madrid"}
	topics := []string{"budget", "trade", "election", "stadium", "markets", "tour"}
	groups := [][]string{
		{"europe", "france"},
		{"europe", "germany"},
		{"sports", "baseball"},
		{"sports", "soccer"},
		{"europe", "france", "sports", "soccer"},
		{"europe"},
	}
	corpus := textdb.NewCorpus()
	docTerms := make([][]string, 0, nDocs)
	base := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nDocs; i++ {
		text := fmt.Sprintf("%s dispatch about the %s and the %s in %s",
			cities[i%len(cities)], topics[i%len(topics)], topics[(i*2+1)%len(topics)], cities[(i+2)%len(cities)])
		corpus.Add(&textdb.Document{
			Title:  fmt.Sprintf("story %03d", i),
			Source: []string{"wire", "paper"}[i%2],
			Date:   base.AddDate(0, 0, i%11),
			Text:   text,
		})
		docTerms = append(docTerms, groups[i%len(groups)])
	}
	terms := []string{"europe", "france", "germany", "sports", "baseball", "soccer"}
	builder, _ := hierarchy.Lookup("subsumption")
	forest, err := builder.Build(context.Background(), terms, docTerms, hierarchy.BuildConfig{MinDF: 1})
	if err != nil {
		t.Fatal(err)
	}
	iface, err := browse.Build(corpus, forest, docTerms)
	if err != nil {
		t.Fatal(err)
	}
	iface.SetEpoch(1)
	return iface
}

// clusterTopology is a full in-process cluster: one single-node server
// over the whole corpus (the oracle), three shard servers over the
// ring's partition, and a coordinator fanning out to them.
type clusterTopology struct {
	single    *httptest.Server
	shardSrvs []*httptest.Server
	shards    []*Shard
	coord     *Coordinator
	coordSrv  *httptest.Server
}

func buildTopology(t testing.TB, iface *browse.Interface, cfg Config) *clusterTopology {
	t.Helper()
	names := []string{"shard-a", "shard-b", "shard-c"}
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := &clusterTopology{}
	topo.single = httptest.NewServer(serve.New(iface, "single"))
	t.Cleanup(topo.single.Close)
	var peers []Peer
	for _, name := range names {
		sh, err := BuildShard(iface, ring, name)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Len() == 0 {
			t.Fatalf("shard %s got an empty slice; grow the fixture", name)
		}
		srv := serve.New(sh.Interface(), name)
		sh.Register(srv)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		topo.shards = append(topo.shards, sh)
		topo.shardSrvs = append(topo.shardSrvs, ts)
		peers = append(peers, Peer{Name: name, BaseURL: ts.URL})
	}
	coord, err := NewCoordinator(peers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo.coord = coord
	topo.coordSrv = httptest.NewServer(coord)
	t.Cleanup(topo.coordSrv.Close)
	return topo
}

func fetchBytes(t testing.TB, base, pathAndQuery string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + pathAndQuery)
	if err != nil {
		t.Fatalf("GET %s: %v", pathAndQuery, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// differentialURLs enumerates the request shapes the suite compares:
// every public route crossed with facet selections, keyword queries,
// date ranges, limits, and the validation-error paths (whose 400 bodies
// must also be byte-identical).
func differentialURLs() []string {
	return []string{
		"/api/v1/facets",
		"/api/v1/facets?parent=europe",
		"/api/v1/facets?parent=sports",
		"/api/v1/facets?parent=no-such-facet",
		"/api/v1/facets?terms=europe",
		"/api/v1/facets?terms=europe,france",
		"/api/v1/facets?terms=no-such-facet",
		"/api/v1/facets?q=paris",
		"/api/v1/facets?q=paris+budget",
		"/api/v1/facets?q=zzzzz",
		"/api/v1/facets?limit=2",
		"/api/v1/facets?limit=1&parent=europe",
		"/api/v1/facets?from=2008-01-03&to=2008-01-07",
		"/api/v1/facets?terms=europe&q=paris&from=2008-01-02&to=2008-01-10",
		"/api/v1/facets?from=bogus",
		"/api/v1/facets?limit=0",
		"/api/v1/docs",
		"/api/v1/docs?limit=3",
		"/api/v1/docs?limit=500",
		"/api/v1/docs?terms=europe",
		"/api/v1/docs?terms=europe,soccer&limit=7",
		"/api/v1/docs?q=paris",
		"/api/v1/docs?q=paris+markets",
		"/api/v1/docs?q=zzzzz",
		"/api/v1/docs?from=2008-01-04",
		"/api/v1/docs?to=2008-01-04",
		"/api/v1/docs?from=2008-01-06&to=2008-01-03",
		"/api/v1/docs?terms=sports&q=stadium&limit=5",
		"/api/v1/docs?limit=9999",
		"/api/v1/dates",
		"/api/v1/dates?granularity=month",
		"/api/v1/dates?granularity=year",
		"/api/v1/dates?terms=europe",
		"/api/v1/dates?q=paris&granularity=day",
		"/api/v1/dates?granularity=fortnight",
		"/api/v1/cross?a=europe&b=sports",
		"/api/v1/cross?a=sports&b=europe",
		"/api/v1/cross?a=europe&b=sports&terms=france",
		"/api/v1/cross?a=europe&b=sports&q=paris",
		"/api/v1/cross?a=europe",
		"/api/v1/cross?a=no-such-facet&b=sports",
		"/api/v1/nonexistent",
	}
}

// TestDifferentialCoordinatorVsSingleNode is the tentpole proof: a
// 3-shard scatter-gather topology answers every request byte-identically
// to one node serving the whole corpus — status and body, success and
// error, cold and cached (each URL is fetched twice; the second hit
// exercises the shards' query caches).
func TestDifferentialCoordinatorVsSingleNode(t *testing.T) {
	iface := clusterFixture(t, 48)
	topo := buildTopology(t, iface, Config{Timeout: 10 * time.Second})
	for _, url := range differentialURLs() {
		for pass := 0; pass < 2; pass++ {
			wantStatus, wantBody := fetchBytes(t, topo.single.URL, url)
			gotStatus, gotBody := fetchBytes(t, topo.coordSrv.URL, url)
			if gotStatus != wantStatus {
				t.Errorf("%s (pass %d): status %d, single node %d", url, pass, gotStatus, wantStatus)
				continue
			}
			if string(gotBody) != string(wantBody) {
				t.Errorf("%s (pass %d): body diverges\ncoordinator: %s\nsingle node: %s",
					url, pass, gotBody, wantBody)
			}
		}
	}
}

// TestDifferentialShardCounts sanity-checks the partition itself: the
// shard slices are disjoint, exhaustive, and each shard's match count
// sums to the single node's.
func TestDifferentialShardCounts(t *testing.T) {
	iface := clusterFixture(t, 48)
	topo := buildTopology(t, iface, Config{Timeout: 10 * time.Second})
	totalDocs := 0
	for _, sh := range topo.shards {
		totalDocs += sh.Len()
	}
	if totalDocs != iface.Corpus().Len() {
		t.Fatalf("shards hold %d docs, corpus has %d", totalDocs, iface.Corpus().Len())
	}
	for _, sel := range []browse.Selection{
		{},
		{Terms: []string{"europe"}},
		{Terms: []string{"sports", "soccer"}},
		{Query: "paris"},
	} {
		sum := 0
		for _, sh := range topo.shards {
			sum += sh.Interface().MatchCount(sel)
		}
		if want := iface.MatchCount(sel); sum != want {
			t.Errorf("selection %+v: shard sum %d, single node %d", sel, sum, want)
		}
	}
}

// TestPartialResultsOneShardDown is the fault-injection differential:
// with one shard unreachable the coordinator still answers 200, the
// body carries an explicit degradation report naming the missing shard,
// and the merged counts equal the single node's minus exactly the dead
// shard's contribution — degraded, but honestly so.
func TestPartialResultsOneShardDown(t *testing.T) {
	iface := clusterFixture(t, 48)
	topo := buildTopology(t, iface, Config{
		Timeout: 10 * time.Second,
		// Threshold 1: the first refused connection opens the breaker, so
		// the test also covers the breaker-open shedding path on later
		// requests without needing retries to accumulate.
		Breaker: resilient.BreakerConfig{Threshold: 1, Cooldown: 1 << 20},
	})
	down := topo.shards[1]
	topo.shardSrvs[1].Close()

	status, body := fetchBytes(t, topo.coordSrv.URL, "/api/v1/facets")
	if status != http.StatusOK {
		t.Fatalf("one shard down: status %d, want 200 partial results; body %s", status, body)
	}
	var resp FacetsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == nil {
		t.Fatalf("no degradation report in %s", body)
	}
	if resp.Degraded.ShardsTotal != 3 || len(resp.Degraded.MissingShards) != 1 ||
		resp.Degraded.MissingShards[0] != down.Name() {
		t.Fatalf("degradation report %+v, want exactly %q missing of 3", resp.Degraded, down.Name())
	}
	if resp.Degraded.Errors[down.Name()] == "" {
		t.Fatalf("degradation report carries no error for %s: %+v", down.Name(), resp.Degraded)
	}
	wantTotal := iface.MatchCount(browse.Selection{}) - down.Interface().MatchCount(browse.Selection{})
	if resp.Total != wantTotal {
		t.Fatalf("degraded total %d, want %d (whole corpus minus dead shard)", resp.Total, wantTotal)
	}

	// Docs: the surviving shards' documents, still in global id order.
	status, body = fetchBytes(t, topo.coordSrv.URL, "/api/v1/docs?limit=500")
	if status != http.StatusOK {
		t.Fatalf("docs with one shard down: status %d", status)
	}
	var docs DocsResponse
	if err := json.Unmarshal(body, &docs); err != nil {
		t.Fatal(err)
	}
	if docs.Degraded == nil || docs.Degraded.MissingShards[0] != down.Name() {
		t.Fatalf("docs degradation report %+v", docs.Degraded)
	}
	if want := iface.Corpus().Len() - down.Len(); docs.Total != want {
		t.Fatalf("degraded docs total %d, want %d", docs.Total, want)
	}
	for i := 1; i < len(docs.Docs); i++ {
		if docs.Docs[i-1].ID >= docs.Docs[i].ID {
			t.Fatalf("degraded docs not in ascending global order at %d", i)
		}
	}

	// Dates: degraded form wraps the bucket array and names the shard.
	status, body = fetchBytes(t, topo.coordSrv.URL, "/api/v1/dates")
	if status != http.StatusOK {
		t.Fatalf("dates with one shard down: status %d", status)
	}
	var dates DatesResponse
	if err := json.Unmarshal(body, &dates); err != nil {
		t.Fatal(err)
	}
	if dates.Degraded == nil || len(dates.Buckets) == 0 {
		t.Fatalf("dates degraded response %s", body)
	}

	// The breaker opened after the first refused connection, so readyz
	// now reports not-ready while queries keep serving partial results.
	status, body = fetchBytes(t, topo.coordSrv.URL, "/api/v1/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a tripped shard: status %d, body %s", status, body)
	}
	if !strings.Contains(string(body), down.Name()) {
		t.Fatalf("readyz does not name the tripped shard: %s", body)
	}

	// Metrics surface the degradation and the per-shard errors.
	snap := topo.coord.Metrics().Snapshot()
	raw, _ := json.Marshal(snap)
	if !strings.Contains(string(raw), "cluster.degraded_responses") {
		t.Fatalf("metrics snapshot missing degraded counter: %s", raw)
	}
}

// TestAllShardsDown: partial results need at least one answer; a full
// outage is an explicit 503, not an empty 200.
func TestAllShardsDown(t *testing.T) {
	iface := clusterFixture(t, 24)
	topo := buildTopology(t, iface, Config{Timeout: 10 * time.Second})
	for _, ts := range topo.shardSrvs {
		ts.Close()
	}
	status, body := fetchBytes(t, topo.coordSrv.URL, "/api/v1/facets")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all shards down: status %d, body %s", status, body)
	}
	var envelope struct {
		Error serve.ErrorDetail `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != serve.ErrCodeUnavailable {
		t.Fatalf("error code %q, want %q", envelope.Error.Code, serve.ErrCodeUnavailable)
	}
}

// TestParsePeers covers the -peers flag syntax.
func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1, b=http://h2:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].Name != "a" || peers[1].BaseURL != "http://h2:2" {
		t.Fatalf("peers = %+v", peers)
	}
	for _, bad := range []string{"", "nourl", "=http://h", "a="} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}
