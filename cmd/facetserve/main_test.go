package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// logBuffer collects one run's log and hands over the address of its
// "listening on" line. Writes may come from several goroutines.
type logBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func newLogBuffer() *logBuffer { return &logBuffer{addr: make(chan string, 1)} }

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, line := range strings.Split(string(p), "\n") {
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			select {
			case b.addr <- rest:
			default:
			}
		}
	}
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// node is one in-process facetserve run.
type node struct {
	url string
	log *logBuffer
	// stop cancels the run's ctx and returns what run returned; a second
	// call returns the same.
	stop func() error
}

// startNode runs facetserve with args on a loopback port and returns
// once it listens. The test's cleanup stops it.
func startNode(t *testing.T, args ...string) *node {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{log: newLogBuffer()}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), n.log) }()
	n.stop = sync.OnceValue(func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Minute):
			return errors.New("run did not return within a minute of cancel")
		}
	})
	t.Cleanup(func() { n.stop() })
	select {
	case n.url = <-n.log.addr:
	case err := <-done:
		done <- err
		t.Fatalf("run %v returned %v before listening:\n%s", args, err, n.log)
	case <-time.After(2 * time.Minute):
		t.Fatalf("run %v never listened:\n%s", args, n.log)
	}
	return n
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// docsMatching is the number of documents a keyword query finds.
func docsMatching(t *testing.T, base, word string) int {
	t.Helper()
	var resp serve.DocsResponse
	if err := json.Unmarshal(get(t, base+"/api/v1/docs?q="+word), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Total
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still false after a minute", what)
		}
	}
}

// stageHistograms lists the pipeline stage histograms a node recorded.
func stageHistograms(t *testing.T, n *node) []string {
	t.Helper()
	var snap obsv.Snapshot
	if err := json.Unmarshal(get(t, n.url+"/api/v1/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	var out []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "core.stage.") {
			out = append(out, name)
		}
	}
	return out
}

// ingestOne POSTs one document whose text carries word.
func ingestOne(t *testing.T, base, word string) {
	t.Helper()
	body := `{"documents":[{"title":"Island census","source":"wire","date":"2006-08-01","text":"Rangers counted every ` + word + ` on the island."}]}`
	resp, err := http.Post(base+"/api/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: %d %s", resp.StatusCode, msg)
	}
}

// A cold batch run saves its snapshot with the Step-3 rows; a warm start
// from that file serves the same bytes without running the pipeline and
// leaves the file untouched.
func TestBatchThenWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.fsnp")
	args := []string{"-docs", "40", "-snapshot", path}

	cold := startNode(t, args...)
	facets := get(t, cold.url+"/api/v1/facets")
	docs := get(t, cold.url+"/api/v1/docs?limit=100")
	if len(stageHistograms(t, cold)) == 0 {
		t.Fatal("the cold run recorded no core.stage.* histogram")
	}
	if err := cold.stop(); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(saved)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Facets) == 0 {
		t.Error("the batch snapshot has no FacetStat rows")
	}

	warm := startNode(t, args...)
	if !strings.Contains(warm.log.String(), "pipeline skipped") {
		t.Errorf("no warm start logged:\n%s", warm.log)
	}
	if got := get(t, warm.url+"/api/v1/facets"); !bytes.Equal(got, facets) {
		t.Errorf("warm /api/v1/facets differs:\n%s\ncold:\n%s", got, facets)
	}
	if got := get(t, warm.url+"/api/v1/docs?limit=100"); !bytes.Equal(got, docs) {
		t.Errorf("warm /api/v1/docs differs:\n%s\ncold:\n%s", got, docs)
	}
	if names := stageHistograms(t, warm); len(names) != 0 {
		t.Errorf("the warm start ran the pipeline: %v", names)
	}
	eventually(t, "background validation passes", func() bool {
		return strings.Contains(warm.log.String(), "passed background validation")
	})
	if err := warm.stop(); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, saved) {
		t.Errorf("the warm start rewrote the snapshot it loaded (err %v)", err)
	}
}

// A live node publishes a POSTed document, rewrites the snapshot at the
// epoch, drains on cancel, and serves the document again after a restart
// from its segment store.
func TestLiveStoreRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fsnp")
	args := []string{"-live", "-store", filepath.Join(dir, "store"), "-snapshot", path, "-epoch-docs", "1", "-docs", "20"}

	n := startNode(t, args...)
	if epoch, err := snapshot.PeekEpochFile(path); err != nil || epoch != 1 {
		t.Fatalf("bootstrap snapshot: epoch %d, err %v; want epoch 1", epoch, err)
	}
	ingestOne(t, n.url, "quokka")
	eventually(t, "the ingested document is served", func() bool { return docsMatching(t, n.url, "quokka") == 1 })
	eventually(t, "the snapshot is rewritten", func() bool {
		epoch, err := snapshot.PeekEpochFile(path)
		return err == nil && epoch == 2
	})
	if err := n.stop(); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if log := n.log.String(); !strings.Contains(log, "shutdown complete: 21 documents ingested, 21 persisted") {
		t.Errorf("drain did not persist every document:\n%s", log)
	}

	restarted := startNode(t, args...)
	if !strings.Contains(restarted.log.String(), "warm-starting from") {
		t.Errorf("the restart did not load the store:\n%s", restarted.log)
	}
	if got := docsMatching(t, restarted.url, "quokka"); got != 1 {
		t.Errorf("after the restart %d documents match, want 1", got)
	}
}

// A replica serves the leader's bytes, at the first epoch and after the
// leader publishes another.
func TestLeaderReplica(t *testing.T) {
	leader := startNode(t, "-role", "leader", "-live", "-docs", "30", "-epoch-docs", "1")
	replica := startNode(t, "-role", "replica", "-peers", leader.url, "-poll-interval", "20ms")
	same := func() {
		t.Helper()
		want, got := get(t, leader.url+"/api/v1/facets"), get(t, replica.url+"/api/v1/facets")
		if !bytes.Equal(got, want) {
			t.Errorf("replica /api/v1/facets differs:\n%s\nleader:\n%s", got, want)
		}
	}
	same()
	ingestOne(t, leader.url, "quokka")
	eventually(t, "the replica applies the new epoch", func() bool { return docsMatching(t, replica.url, "quokka") == 1 })
	same()
	if err := replica.stop(); err != nil {
		t.Errorf("replica: %v", err)
	}
	if err := leader.stop(); err != nil {
		t.Errorf("leader: %v", err)
	}
}

// Cancelling ctx during start-up makes run return ctx's error without
// listening: the batch build stops part-way, and a live node stops once
// its bootstrap (which takes no ctx) returns.
func TestCancelDuringStartup(t *testing.T) {
	for _, tc := range []struct {
		name, wait string
		args       []string
	}{
		{"batch", "extracting facets from", []string{"-docs", "2000"}},
		{"live", "bootstrapping live pipeline", []string{"-live", "-docs", "200"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			log := newLogBuffer()
			done := make(chan error, 1)
			go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), log) }()
			eventually(t, "log shows "+tc.wait, func() bool { return strings.Contains(log.String(), tc.wait) })
			cancel()
			start := time.Now()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("run returned %v, want context.Canceled", err)
				}
				t.Logf("returned %v after cancel", time.Since(start))
			case <-time.After(10 * time.Second):
				t.Fatalf("run still starting 10s after cancel:\n%s", log)
			}
			if got := log.String(); strings.Contains(got, "stage build_hierarchy") || strings.Contains(got, "listening on") {
				t.Errorf("start-up went on despite the cancel:\n%s", got)
			}
		})
	}
}

// Flag combinations no role can serve fail before anything listens.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-role=shard", "-live", "-shard-name=a", "-cluster-shards=a"}, "incompatible with -live"},
		{[]string{"-role=shard", "-shard-name=a"}, "needs -shard-name and -cluster-shards"},
		{[]string{"-role=shard", "-cluster-shards=a"}, "needs -shard-name and -cluster-shards"},
		{[]string{"-role=primary"}, `unknown -role "primary"`},
		{[]string{"-role=replica"}, "needs -peers"},
		{[]string{"-role=coordinator"}, "no peers"},
		{[]string{"-hierarchy=bogus", "-docs=5"}, `unknown hierarchy builder "bogus"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			log := newLogBuffer()
			err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), log)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run returned %v, want an error containing %q", err, tc.want)
			}
			if strings.Contains(log.String(), "listening on") {
				t.Errorf("run listened:\n%s", log)
			}
		})
	}
}
