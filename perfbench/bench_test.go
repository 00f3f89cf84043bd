package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p     float64
		value float64
	}{
		{10, 0, 0},      // no percentile has ten samples beyond it
		{20, 50, 10},    // p50 leaves exactly ten beyond
		{100, 90, 90},   // p95 would leave five
		{1000, 99, 990}, // p99.9 would leave one
		{20000, 99.9, 19980},
	} {
		got := tailOf(seq(c.n))
		if got.P != c.p || got.Value != c.value || got.N != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want p%v = %v over %d", c.n, got, c.p, c.value, c.n)
		}
		if got.P > 0 && beyond(c.n, got.P) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got.P, beyond(c.n, got.P))
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentileOf([]float64{1, 2, 3}, 99); got != 0 {
		t.Errorf("p99 of 3 samples = %v, want 0 (too few samples)", got)
	}
}

func TestWindowedMedians(t *testing.T) {
	// A 4 s phase from t = 10 s in four 1 s windows. Window 2 is a burst
	// of slowness: fewer completions, slower requests. The medians over
	// windows leave it out.
	var at, lat []float64
	add := func(window float64, n int, ms float64) {
		for i := 0; i < n; i++ {
			at = append(at, 10+window+float64(i)/float64(n))
			lat = append(lat, ms)
		}
	}
	add(0, 100, 1)
	add(1, 110, 1.2)
	add(2, 20, 9)
	add(3, 90, 1.1)
	at = append(at, 9.5, 14.5) // before and after the phase: left out
	lat = append(lat, 50, 50)
	rate, p50 := windowed(at, lat, 10, 4, 4)
	if rate != 95 || math.Abs(p50-1.15) > 1e-9 {
		t.Fatalf("rate %v, p50 %v; want 95/s (median of 100, 110, 20, 90) and 1.15 ms (of 1, 1.2, 9, 1.1)", rate, p50)
	}
	if got := windows(20 * time.Second); got != 10 {
		t.Fatalf("windows(20s) = %d, want 10 windows of %d s", got, windowSeconds)
	}
	if windows(time.Second) != 1 {
		t.Fatalf("a phase shorter than two windows must still be one window")
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{Name: "pass", Start: us(0), End: us(100), Parent: -1},
		{Name: "a", Start: us(10), End: us(30), Parent: 0},
		{Name: "b", Start: us(20), End: us(50), Parent: 0},  // overlaps a
		{Name: "c", Start: us(90), End: us(120), Parent: 0}, // runs past the parent
		{Name: "d", Start: us(25), End: us(45), Parent: 2},  // grandchild
		{Name: "other", Start: us(0), End: us(10), Parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{us(50), us(20), us(10), us(30), us(20), us(10)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// replayRound is one hand-built traced replay: a pass root from start
// lasting dur ms, with stage spans covering the given [from, to) ms
// offsets.
func replayRound(spans []span, start, dur int, stages ...[2]int) ([]span, int) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := len(spans)
	spans = append(spans, span{Name: "pass", Start: ms(start), End: ms(start + dur), Parent: -1})
	for _, st := range stages {
		spans = append(spans, span{Name: "stage", Start: ms(start + st[0]), End: ms(start + st[1]), Parent: root})
	}
	return spans, root
}

func TestCoverageAgainstTheFacadePass(t *testing.T) {
	// Three pairs whose stages cover 95, 98 and 97 ms of replays that ran
	// beside 100 ms facade passes: 3% unaccounted, within the limit.
	var spans []span
	var roots []int
	var r int
	spans, r = replayRound(spans, 0, 100, [2]int{0, 40}, [2]int{40, 95})
	roots = append(roots, r)
	spans, r = replayRound(spans, 200, 100, [2]int{0, 98})
	roots = append(roots, r)
	spans, r = replayRound(spans, 400, 100, [2]int{0, 60}, [2]int{60, 97})
	roots = append(roots, r)
	share, err := coverage(spans, roots, []float64{0.1, 0.1, 0.1})
	if err != nil || math.Abs(share-0.03) > 1e-9 {
		t.Fatalf("coverage = %v, %v; want 0.03 and no error", share, err)
	}

	for _, c := range []struct {
		name   string
		facade float64
		stages [][2]int
		want   float64
	}{
		// A stage went unwrapped: half the replay is outside every span.
		{"unwrapped stage", 0.1, [][2]int{{0, 50}}, 0.5},
		// The replay covers itself but no longer does the facade's work:
		// the facade pass took half as long again.
		{"replay faster than the pass", 0.15, [][2]int{{0, 100}}, 1.0 / 3},
		// The replay does more than the facade pass.
		{"replay slower than the pass", 0.1, [][2]int{{0, 60}, {60, 130}}, 0.3},
	} {
		spans, root := replayRound(nil, 0, 130, c.stages...)
		share, err := coverage(spans, []int{root}, []float64{c.facade})
		if err == nil || math.Abs(share-c.want) > 1e-9 {
			t.Errorf("%s: coverage = %v, %v; want %v and an error", c.name, share, err, c.want)
		}
	}
}

func TestOverheadShare(t *testing.T) {
	if got := overheadShare(110*time.Millisecond, 10, 200*time.Millisecond, 20); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("overheadShare = %v, want 0.1 (11 ms per traced operation over 10 ms per untraced one)", got)
	}
	if got := overheadShare(time.Second, 10, 0, 0); got != 0 {
		t.Fatalf("no untraced work: overheadShare = %v, want 0", got)
	}
	// Live windows: untraced, traced, untraced, traced, 1 s each; a
	// request counts in the window it fell due in.
	start := time.Unix(1000, 0)
	tw := &traceWindows{start: start, width: time.Second, done: make(chan struct{})}
	close(tw.done)
	for _, c := range []int{0, 100, 320, 420, 640} {
		tw.cpu = append(tw.cpu, time.Duration(c)*time.Millisecond)
	}
	var sent []sent
	for w := 0; w < 4; w++ {
		for i := 0; i < 10; i++ {
			due := start.Add(time.Duration(w)*time.Second + time.Duration(i)*50*time.Millisecond)
			sent = append(sent, sentAt(due))
		}
	}
	sent = append(sent, sentAt(start.Add(-time.Second)), sentAt(start.Add(5*time.Second))) // outside: left out
	if got := tw.overhead(sent); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("window overhead = %v, want 1.2 (22 ms per traced request over 10)", got)
	}
}

func sentAt(due time.Time) sent { return sent{due: due, send: due, done: due} }

func TestPassLayersPartitionThePass(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "pass", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "core.derive_context", Start: ms(0), End: ms(40), Parent: 0},
		{Name: "websearch.context", Start: ms(5), End: ms(25), Parent: 1},
		{Name: "facet.assign_doc_terms", Start: ms(40), End: ms(90), Parent: 0},
		{Name: "websearch.context", Start: ms(50), End: ms(80), Parent: 3},
		{Name: "wordnet.context", Start: ms(80), End: ms(85), Parent: 3},
	}
	m := passLayers(spans, 0)
	want := map[string]float64{
		"core.derive_context_ms":                20,
		"websearch.context_ms":                  20,
		"core.resource.calls":                   1,
		"facet.assign_doc_terms_ms":             15,
		"facet.assign_doc_terms.resource_ms":    35,
		"facet.assign_doc_terms.resource_calls": 2,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("passLayers = %v, want %v", m, want)
	}
	var sum float64
	for k, v := range m {
		if k != "core.resource.calls" && k != "facet.assign_doc_terms.resource_calls" {
			sum += v
		}
	}
	if sum != 90 { // 10 ms of the pass are outside every stage
		t.Fatalf("layer times add to %v ms, want 90", sum)
	}
}

func TestJoinByContainment(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{ID: 1, Name: "coordinator", Start: us(0), End: us(100), Parent: -1, Key: "facets?x=1"},
		{ID: 2, Name: "coordinator", Start: us(10), End: us(90), Parent: -1, Key: "facets?x=1"},
		{ID: 3, Name: "coordinator", Start: us(0), End: us(100), Parent: -1, Key: "docs?y=2"},
		{Name: "shard", Start: us(20), End: us(40), Parent: -1, Key: "facets?x=1"}, // both 1 and 2 contain it
		{Name: "shard", Start: us(5), End: us(8), Parent: -1, Key: "facets?x=1"},   // only 1
		{Name: "shard", Start: us(5), End: us(8), Parent: -1, Key: "dates?z=3"},    // no match
	}
	if orphans := joinByContainment(spans, "coordinator", "shard"); orphans != 1 {
		t.Fatalf("orphans = %d, want 1", orphans)
	}
	if spans[3].Parent != 1 || spans[3].ID != 2 {
		t.Errorf("overlapping requests: joined %d (id %d), want the latest-starting one", spans[3].Parent, spans[3].ID)
	}
	if spans[4].Parent != 0 || spans[4].ID != 1 {
		t.Errorf("joined %d, want 0", spans[4].Parent)
	}
	if spans[5].Parent != -1 {
		t.Errorf("a shard span with no matching query was joined")
	}
}

func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	l := periodic(start, 100, time.Second) // one request every 10 ms
	if got := l.requests(); got != 100 {
		t.Fatalf("requests() = %d, want 100", got)
	}
	if got := l.due(3).Sub(start); got != 30*time.Millisecond {
		t.Fatalf("due(3) = start+%v, want start+30ms", got)
	}
	const stall = 35 * time.Millisecond
	out := l.drive(6, func(k int) error {
		if k == 1 {
			time.Sleep(stall) // holds the connection past the next three due times
		}
		if k == 5 {
			return errors.New("refused")
		}
		return nil
	})
	for k, s := range out {
		if !s.due.Equal(l.due(k)) {
			t.Errorf("request %d: due %v, want %v", k, s.due, l.due(k))
		}
		if s.late() < 0 || s.latency() < s.late() {
			t.Errorf("request %d: late %v, latency %v", k, s.late(), s.latency())
		}
	}
	// Requests 2 and 3 fell due during the stall: each is sent late and
	// timed from its due time, so the stall is charged to them too.
	for _, k := range []int{2, 3} {
		if out[k].late() < 10*time.Millisecond {
			t.Errorf("request %d sent only %v late during a %v stall", k, out[k].late(), stall)
		}
	}
	if out[1].latency() < stall {
		t.Errorf("stalled request latency %v < %v", out[1].latency(), stall)
	}
	if out[0].failed || !out[5].failed {
		t.Errorf("failure flags: %v %v", out[0].failed, out[5].failed)
	}
}

func TestJitteredSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	a := jittered(start, 25, 20*time.Second, 7)
	if !reflect.DeepEqual(a, jittered(start, 25, 20*time.Second, 7)) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a.at, jittered(start, 25, 20*time.Second, 8).at) {
		t.Fatal("different seeds, same schedule")
	}
	// One request in the first half of each 40 ms slot, so the count is
	// fixed and consecutive requests are at least 20 ms apart.
	if n := a.requests(); n != 500 {
		t.Fatalf("%d requests in 20 s at 25/s, want 500", n)
	}
	for k, at := range a.at {
		if slot := time.Duration(k) * 40 * time.Millisecond; at < slot || at >= slot+20*time.Millisecond {
			t.Fatalf("request %d at %v, outside the first half of its slot from %v", k, at, slot)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	a := poisson(start, 100, 20*time.Second, 7)
	if !reflect.DeepEqual(a, poisson(start, 100, 20*time.Second, 7)) {
		t.Fatal("same seed, different arrivals")
	}
	if reflect.DeepEqual(a.at, poisson(start, 100, 20*time.Second, 8).at) {
		t.Fatal("different seeds, same arrivals")
	}
	// 2000 arrivals expected; a Poisson count has a standard deviation
	// of about 45.
	if n := a.requests(); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 20 s at 100/s", n)
	}
	for k := 1; k < a.requests(); k++ {
		if a.at[k] < a.at[k-1] || a.at[k] >= 20*time.Second {
			t.Fatalf("arrival %d at %v after %v", k, a.at[k], a.at[k-1])
		}
	}
	if !a.due(0).Equal(start.Add(a.at[0])) {
		t.Fatal("due is not start + offset")
	}
}

func TestFreshnessAttributesEpochToItsLastDocument(t *testing.T) {
	start := time.Unix(1000, 0)
	due := periodic(start, 10, 3*time.Second).due // doc k due at start + k*100ms
	const boot = 50
	events := []publishEvent{
		{at: start.Add(time.Second), docs: boot},                  // bootstrap re-published: no streamed doc
		{at: start.Add(1250 * time.Millisecond), docs: boot + 10}, // last doc 9, due at 900ms
		{at: start.Add(2100 * time.Millisecond), docs: boot + 20}, // last doc 19, due at 1900ms
		{at: start.Add(9 * time.Second), docs: boot + 25},         // covers doc 24, beyond the stream
	}
	got := freshness(events, boot, due, 20)
	want := []float64{350, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("freshness = %v, want %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.Name)
			}
			if !metricUnit.MatchString(d.Unit) {
				t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, bad := range []string{"", "p50 ms", "_x", "a/b", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	for name := range workloads {
		if !metricName.MatchString(name) {
			t.Errorf("workload name %q invalid", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the program reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
}

func TestResultRules(t *testing.T) {
	o := newOutcome()
	o.attempted = 10
	for _, d := range endToEnd {
		o.metrics[d.Name] = 1.5
	}
	r, err := result(o, false)
	if err != nil || !r.Correct || r.Failed != 0 || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("result = %+v, %v", r, err)
	}
	o.check(errors.New("mismatch"))
	if r, _ := result(o, false); r.Correct || r.Failed != 10 {
		t.Fatalf("a failed check must fail every operation: %+v", r)
	}
	delete(o.metrics, "p50_ms")
	if _, err := result(o, false); err == nil {
		t.Fatal("missing end-to-end metric accepted")
	}
	// A traced run reports every per-layer metric, 0 where the layer did
	// not run.
	r, err = result(newOutcomeWith(1), true)
	if err != nil || len(r.Metrics) != len(perLayer) {
		t.Fatalf("traced result = %d metrics, %v", len(r.Metrics), err)
	}
}

func newOutcomeWith(attempted int64) *outcome {
	o := newOutcome()
	o.attempted = attempted
	return o
}

func TestMixIsDeterministic(t *testing.T) {
	v := vocab{
		terms:    []string{"politics", "sports", "business", "science", "elections"},
		parents:  []string{"politics", "sports"},
		keywords: []string{"court", "market", "season"},
		first:    time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC),
		days:     30,
	}
	a, b := buildMix(v, 7, 2000), buildMix(v, 7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different mix")
	}
	if reflect.DeepEqual(a, buildMix(v, 8, 2000)) {
		t.Fatal("different seeds, same mix")
	}
	routes := map[string]int{}
	for _, p := range a {
		routes[routeOf(p)]++
	}
	for _, r := range []string{"facets", "docs", "dates", "cross"} {
		if routes[r] == 0 {
			t.Errorf("mix never asks for %s", r)
		}
	}
}

func TestCorpusIsDeterministic(t *testing.T) {
	env, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	const n = 53 // not a multiple of corpusChunks
	a, err := generateCorpus(env, "SNB", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateCorpus(env, "SNB", n, 3)
	c, _ := generateCorpus(env, "SNB", n, 4)
	if len(a) != n {
		t.Fatalf("%d documents, want %d", len(a), n)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different corpus")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same corpus")
	}
	// The chunks are interleaved: document j < corpusChunks is the first
	// document of chunk j.
	for j := 0; j < corpusChunks; j++ {
		first, _ := env.GenerateNewsCorpus("SNB", 1, 3*corpusChunks+uint64(j))
		if a[j].Text != first[0].Text {
			t.Fatalf("document %d is not the first of chunk %d", j, j)
		}
	}
}

// fallibleResource implements the optional core.ResourceErr method.
type fallibleResource struct{ calls int }

func (*fallibleResource) Name() string                 { return "Google" }
func (*fallibleResource) Context(term string) []string { return []string{"plain"} }
func (r *fallibleResource) ContextErr(_ context.Context, term string) ([]string, error) {
	r.calls++
	return nil, errors.New("down")
}

type plainExtractor struct{}

func (plainExtractor) Name() string                 { return "NE" }
func (plainExtractor) Extract(text string) []string { return []string{text} }

func TestWrappersKeepOptionalMethods(t *testing.T) {
	tr := newTracer()
	tr.enabled.Store(true)
	inner := &fallibleResource{}
	rs := wrapResources(tr, []core.Resource{inner})
	// The program upgrades a resource through core.AsResourceErr; the
	// wrapped one must still reach the fallible method, failures and all.
	if _, err := core.AsResourceErr(rs[0]).ContextErr(context.Background(), "x"); err == nil || inner.calls != 1 {
		t.Fatalf("wrapped resource lost ContextErr: err=%v calls=%d", err, inner.calls)
	}
	if rs[0].Name() != "Google" {
		t.Fatalf("wrapped name %q: cache keys use the resource's name", rs[0].Name())
	}
	exs := wrapExtractors(tr, []core.Extractor{plainExtractor{}})
	if _, ok := exs[0].(core.ExtractorErr); ok {
		t.Fatal("wrapper added an ExtractErr the extractor does not have")
	}
	exs[0].Extract("doc")
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Name != "websearch.context" || spans[1].Name != "ner.extract" {
		t.Fatalf("spans = %+v", spans)
	}
	tr.enabled.Store(false)
	exs[0].Extract("doc")
	if len(tr.snapshot()) != 2 {
		t.Fatal("a disabled tracer recorded a span")
	}
}
