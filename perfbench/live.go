package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/textdb"
)

const (
	// liveBootDocs SNB documents bootstrap the live server in set-up.
	liveBootDocs = 200
	// liveDocsPerSec is the open-loop ingest rate, one document per POST.
	// The live server's CPU load sets how much a request waits for a
	// processor, and with it how strongly the host's speed from run to
	// run shows in the latencies: at 50 documents/s after a 400-document
	// bootstrap (the process busy about half the time) p50_ms spread
	// 0.23 to 0.37 over five to ten seeds. At 25/s with an epoch every 8
	// documents, fresh_p50_ms spread 0.22 to 0.24 over ten seeds, and in
	// four runs interleaved with four at this rate it read 108 to 154 ms
	// where these read 79 to 93 ms: the corpus grows half as far in a
	// run, so the rebuilds stay shorter and the process idler.
	liveDocsPerSec = 12.5
	// liveEpochDocs triggers an epoch every 0.32 s at that rate; at this
	// commit a rebuild takes about a quarter of that, so no epoch
	// coalesces and the run length fixes the epoch count (62 in 20 s).
	liveEpochDocs = 4
	// liveReadsPerSec is the mean rate of the read connection's Poisson
	// arrivals.
	liveReadsPerSec = 100
)

// liveSystem is a set-up live_ingest workload: a live server with its
// ingester, segment store and snapshot file, bootstrapped over SNB.
type liveSystem struct {
	env    *facet.Environment
	boot   []facet.Document
	stream []facet.Document
	// exs and rs are the extractors and resources the ingester runs.
	exs   []core.Extractor
	rs    []core.Resource
	ing   *ingest.Ingester
	reg   *obsv.Registry
	front *server
	dir   string

	mu       sync.Mutex
	publishs []publishEvent
	once     sync.Once
}

// publishEvent is one epoch as the publish hook saw it.
type publishEvent struct {
	at   time.Time
	docs int // documents in the published corpus
}

func (ls *liveSystem) stop() {
	ls.once.Do(func() {
		if ls.front != nil {
			ls.front.stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ls.ing.Close(ctx)
		os.RemoveAll(ls.dir)
	})
}

// setupLive wires the live path as `facetserve -live -store DIR
// -snapshot FILE` does: metrics registry, overload governor, segment
// store, an ingester bootstrapped over the initial documents, the
// snapshot rewritten after every published epoch, and the server.
// Pipeline work runs at one worker; the flush policy is the program's
// own.
func setupLive(cfg runConfig, n int, tr *tracer) (*liveSystem, error) {
	env, err := newEnv()
	if err != nil {
		return nil, err
	}
	streamDocs := int(cfg.seconds.Seconds()*liveDocsPerSec) + 1
	docs, err := generateCorpus(env, "SNB", liveBootDocs+streamDocs, cfg.seed)
	if err != nil {
		return nil, err
	}
	ls := &liveSystem{env: env, boot: docs[:liveBootDocs], stream: docs[liveBootDocs:], dir: filepath.Join(cfg.dir, fmt.Sprintf("live-%d", n))}
	metrics := obsv.NewRegistry()
	ls.reg = metrics
	gov := overload.NewGovernor(overload.GovernorConfig{Metrics: metrics})
	sys, err := facet.NewSystem(env, facet.Options{TopK: 120, Workers: 1})
	if err != nil {
		return nil, err
	}
	sys.SetMetrics(metrics)
	for _, d := range ls.boot {
		sys.Add(d)
	}
	store, err := textdb.OpenStore(filepath.Join(ls.dir, "store"))
	if err != nil {
		return nil, err
	}
	store.SetMetrics(metrics)
	ls.exs, ls.rs = sys.CoreExtractors(), sys.CoreResources()
	if cfg.trace {
		ls.exs, ls.rs = wrapExtractors(tr, ls.exs), wrapResources(tr, ls.rs)
	}
	ing, err := ingest.New(ingest.Config{
		Extractors:   ls.exs,
		Resources:    ls.rs,
		Fallback:     sys.CoreFallback(),
		TopK:         120,
		Workers:      1,
		QueueSize:    1024,
		EpochDocs:    liveEpochDocs,
		MaxStaleness: 30 * time.Second,
		CacheSize:    4096,
		Store:        store,
		Logf:         cfg.logf,
		Metrics:      metrics,
	})
	if err != nil {
		return nil, err
	}
	ls.ing = ing
	bootstrap := make([]*textdb.Document, len(ls.boot))
	for i, d := range ls.boot {
		bootstrap[i] = &textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
	}
	if err := ing.Bootstrap(bootstrap, true); err != nil {
		return nil, err
	}
	srv := serve.New(ing.Current(), "SNB live archive — streaming ingestion enabled", serve.WithMetrics(metrics), serve.WithOverload(gov))
	srv.EnableIngest(ing)
	snapPath := filepath.Join(ls.dir, "state.fsnp")
	saveEpoch := func(iface *browse.Interface) {
		snap := snapshot.Capture(iface, snapshot.Meta{
			Epoch: iface.Epoch(), Profile: "SNB", Seed: envSeed,
			CreatedUnixNano: time.Now().UnixNano(),
		}, nil)
		if err := snapshot.Save(snapPath, snap, metrics); err != nil {
			cfg.logf("snapshot save (epoch %d): %v", iface.Epoch(), err)
		}
	}
	saveEpoch(ing.Current())
	ing.SetOnPublish(func(iface *browse.Interface) {
		at := time.Now()
		ls.mu.Lock()
		ls.publishs = append(ls.publishs, publishEvent{at: at, docs: iface.Corpus().Len()})
		ls.mu.Unlock()
		srv.Publish(iface)
		saveEpoch(iface)
	})
	ing.Start()
	if ls.front, err = startServer(tr.handler("serve", srv)); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// openLoop is one connection's schedule: request k is due at
// start + at[k], whether or not the previous one has come back. A
// request is timed from when it was due, so a stall also charges the
// wait it imposes on the requests behind it.
type openLoop struct {
	start time.Time
	at    []time.Duration
}

// periodic schedules a request every 1/rate seconds for length.
func periodic(start time.Time, rate float64, length time.Duration) openLoop {
	l := openLoop{start: start, at: make([]time.Duration, int(length.Seconds()*rate+0.5))}
	for k := range l.at {
		l.at[k] = time.Duration(float64(k) / rate * float64(time.Second))
	}
	return l
}

// jittered schedules one request in each 1/rate slot of length, at a
// point of the slot's first half drawn uniformly from seed: a feed that
// delivers documents at a steady rate, so the document count, and with
// it the epoch count, is fixed. On a strict period every POST met the
// system at the same phase of its own periodic work for the whole run,
// and the POSTs' median latency was about 1.9 ms in one run and 4.5 ms
// in the next two of the same seed. Drawing from the whole slot let two
// documents arrive a few milliseconds apart, and an epoch triggered by
// the first then also took the second; half a slot keeps consecutive
// documents at least half a period apart.
func jittered(start time.Time, rate float64, length time.Duration, seed uint64) openLoop {
	r := rand.New(rand.NewSource(int64(seed)))
	l := periodic(start, rate, length)
	for k := range l.at {
		l.at[k] += time.Duration(r.Float64() / 2 / rate * float64(time.Second))
	}
	return l
}

// poisson schedules requests for length with exponential gaps of mean
// 1/rate drawn from seed, as independent readers arrive. Periodic reads
// fell due at fixed phases of a periodic feed and of the epoch rhythm it
// sets (every ingest POST was due at the same instant as a read), and
// the median latency of a run then depended on how those phases
// happened to line up with the rebuilds.
func poisson(start time.Time, rate float64, length time.Duration, seed uint64) openLoop {
	r := rand.New(rand.NewSource(int64(seed)))
	l := openLoop{start: start}
	for t := time.Duration(r.ExpFloat64() / rate * float64(time.Second)); t < length; t += time.Duration(r.ExpFloat64() / rate * float64(time.Second)) {
		l.at = append(l.at, t)
	}
	return l
}

func (l openLoop) due(k int) time.Time { return l.start.Add(l.at[k]) }

// requests returns how many requests the schedule holds.
func (l openLoop) requests() int { return len(l.at) }

// sent is one open-loop request's timing.
type sent struct {
	due, send, done time.Time
	failed          bool
}

func (s sent) latency() time.Duration { return s.done.Sub(s.due) }
func (s sent) late() time.Duration    { return s.send.Sub(s.due) }

// drive runs an open loop on one client until its schedule ends: it
// sleeps until each request is due (or sends at once when behind) and
// calls send.
func (l openLoop) drive(n int, send func(k int) error) []sent {
	out := make([]sent, n)
	for k := 0; k < n; k++ {
		due := l.due(k)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := sent{due: due, send: time.Now()}
		s.failed = send(k) != nil
		s.done = time.Now()
		out[k] = s
	}
	return out
}

// freshness attributes each epoch to the last document it publishes —
// stream document docs-boot-1, since one intake worker admits documents
// in arrival order — and returns publish time minus that document's due
// time, for epochs that published streamed documents.
func freshness(events []publishEvent, boot int, due func(k int) time.Time, streamed int) []float64 {
	var out []float64
	for _, e := range events {
		last := e.docs - boot - 1
		if last < 0 || last >= streamed {
			continue
		}
		out = append(out, ms(e.at.Sub(due(last))))
	}
	return out
}

// liveReadShare is the route composition of the live read mix, 16 GETs
// that cycle on the read connection. The mix is small, so its
// query-cache misses come from each epoch swap. The shares are the
// browse mix's without cross-tabs, rounded (an assumption like that mix;
// see mixGen), and fixed so that the seed picks which facets and
// documents are read but not how many requests of each route. The
// routes' latencies differ several-fold (a result list's round trip
// takes three times a facet menu's), and with a free draw the result
// lists' share of reads ranged from a quarter to over half between
// seeds, which moved the run's median latency from one route's latency
// to another's.
var liveReadShare = map[string]int{"facets": 8, "docs": 6, "dates": 2}

// readMixLive is the live read connection's GET mix, drawn from the
// bootstrap epoch's vocabulary in liveReadShare's composition; it names
// no cross-tab, which would answer 400 once an epoch drops one of its
// facets.
func readMixLive(iface *browse.Interface, seed uint64) []string {
	g := newMixGen(vocabOf(iface), seed)
	left, total := map[string]int{}, 0
	for route, n := range liveReadShare {
		left[route] = n
		total += n
	}
	var out []string
	for len(out) < total {
		if p := g.next(); left[routeOf(p)] > 0 {
			left[routeOf(p)]--
			out = append(out, p)
		}
	}
	return out
}

func runLive(cfg runConfig) (*outcome, error) {
	tr := newTracer()
	n := 0
	return measured(cfg, func() (*liveSystem, error) {
		n++
		return setupLive(cfg, n, tr)
	}, func(ls *liveSystem) { ls.stop() }, func(ls *liveSystem, o *outcome) error {
		return measureLive(cfg, ls, tr, o)
	})
}

// traceWindows alternates tracing off and on over the stream of a traced
// run, in windows of windowSeconds from start (at least two), and
// records the process CPU time at every window boundary. Done is closed
// when the last window ends.
type traceWindows struct {
	start time.Time
	width time.Duration
	cpu   []time.Duration
	done  chan struct{}
}

func alternateTracing(tr *tracer, start time.Time, length time.Duration) *traceWindows {
	k := windows(length)
	if k < 2 {
		k = 2
	}
	tw := &traceWindows{start: start, width: length / time.Duration(k), done: make(chan struct{})}
	go func() {
		defer close(tw.done)
		for w := 0; w <= k; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * tw.width)))
			tw.cpu = append(tw.cpu, cpuTime())
			tr.enabled.Store(w < k && w%2 == 1)
		}
	}()
	return tw
}

// overhead compares the CPU time per request of the traced windows with
// that of the untraced ones; requests count in the window they fell due.
func (tw *traceWindows) overhead(sent []sent) float64 {
	<-tw.done
	ops := make([]float64, len(tw.cpu)-1)
	for _, s := range sent {
		if w := int(s.due.Sub(tw.start) / tw.width); w >= 0 && w < len(ops) {
			ops[w]++
		}
	}
	var cpu [2]time.Duration
	var n [2]float64
	for w := range ops {
		cpu[w%2] += tw.cpu[w+1] - tw.cpu[w]
		n[w%2] += ops[w]
	}
	return overheadShare(cpu[1], n[1], cpu[0], n[0])
}

// measureLive streams documents and reads at their fixed rates for the
// run's length, drains the ingester and checks the final state.
func measureLive(cfg runConfig, ls *liveSystem, tr *tracer, o *outcome) error {
	reads := readMixLive(ls.ing.Current(), cfg.seed)
	stats0 := ls.ing.Stats()
	snap0 := ls.reg.Snapshot()
	ls.mu.Lock()
	ls.publishs = nil
	ls.mu.Unlock()

	ingestClient, readClient := newClient(), newClient()
	defer closeClients([]*http.Client{ingestClient, readClient})
	c0, m0, steal := cpuTime(), readMem(), startSteal()
	start := time.Now().Add(50 * time.Millisecond)
	var tw *traceWindows
	if cfg.trace {
		tw = alternateTracing(tr, start, cfg.seconds)
	}
	docLoop := jittered(start, liveDocsPerSec, cfg.seconds, cfg.seed+2<<32)
	// The arrivals use their own stream, not the read mix's.
	readLoop := poisson(start, liveReadsPerSec, cfg.seconds, cfg.seed+1<<32)
	nDocs := docLoop.requests()
	if nDocs > len(ls.stream) {
		nDocs = len(ls.stream)
	}
	nReads := readLoop.requests()
	var docSent, readSent []sent
	var errMu sync.Mutex
	var firstErr error
	noteErr := func(err error) error {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		return err
	}
	var queueMax int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		docSent = docLoop.drive(nDocs, func(k int) error {
			if q := ls.ing.Stats().QueueDepth; q > queueMax {
				queueMax = q
			}
			return noteErr(postDoc(ingestClient, ls.front.URL, ls.stream[k], int64(k+1), tr, &buf))
		})
	}()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		readSent = readLoop.drive(nReads, func(k int) error {
			return noteErr(getRead(readClient, ls.front.URL, reads[k%len(reads)], int64(nDocs+k+1), tr, &buf))
		})
	}()
	wg.Wait()
	streamEnd := time.Now()
	cpu, m1 := cpuTime()-c0, readMem()
	o.noise["steal_share"] = steal.share()
	all := append(append([]sent(nil), docSent...), readSent...)
	if tw != nil {
		o.metrics["trace.overhead_share"] = tw.overhead(all)
	}
	ls.mu.Lock()
	events := append([]publishEvent(nil), ls.publishs...)
	ls.mu.Unlock()
	stats1 := ls.ing.Stats()
	snap1 := ls.reg.Snapshot()

	var late, readLat, readDue, postLat []float64
	for _, s := range all {
		late = append(late, ms(s.late()))
		o.attempted++
		if s.failed {
			o.fail(1, firstErr)
		}
	}
	for _, s := range readSent {
		readLat = append(readLat, ms(s.latency()))
		readDue = append(readDue, s.due.Sub(start).Seconds())
	}
	for _, s := range docSent {
		postLat = append(postLat, ms(s.latency()))
	}
	fresh := freshness(events, liveBootDocs, docLoop.due, nDocs)
	if len(fresh) == 0 {
		return fmt.Errorf("no epoch published during the stream")
	}
	lastPublish := events[len(events)-1]
	published := lastPublish.docs - liveBootDocs
	if published > nDocs {
		published = nDocs
	}
	o.metrics["ops_per_s"] = float64(published) / lastPublish.at.Sub(start).Seconds()
	// The reads' latency: a POST's round trip is a different population
	// (about three times a read's), and with a fifth of the requests
	// above most reads the median of the two together sat where the
	// read latencies thin out, and moved by a tenth from run to run of
	// one seed. The POSTs' median is in the noise line.
	_, o.metrics["p50_ms"] = windowed(readDue, readLat, 0, cfg.seconds.Seconds(), windows(cfg.seconds))
	o.noise["post_p50_ms"] = median(postLat)
	o.metrics["fresh_p50_ms"] = median(fresh)
	if len(fresh) >= 4 {
		q := append([]float64(nil), fresh...)
		sort.Float64s(q)
		cfg.logf("stream: %d epochs, freshness quartiles %.1f / %.1f / %.1f ms", len(q), q[len(q)/4], median(q), q[3*len(q)/4])
	}
	o.metrics["cpu_ms_per_op"] = ms(cpu) / float64(nDocs)
	epochs := stats1.Epochs - stats0.Epochs
	var coalesced int
	for i, e := range events {
		prev := liveBootDocs
		if i > 0 {
			prev = events[i-1].docs
		}
		if e.docs-prev > liveEpochDocs {
			coalesced++
		}
	}
	lateTail := tailOf(late)
	o.noise["epochs"] = float64(epochs)
	o.noise["coalesced_epochs"] = float64(coalesced)
	o.noise["docs_per_epoch"] = ratio(float64(nDocs), float64(epochs))
	o.noise["gen_late_ms"] = lateTail.Value
	o.noise["gen_late_pct"] = lateTail.P
	o.noise["queue_depth_max"] = float64(queueMax)
	o.noise["ingest_cache_hit_rate"] = ratio(float64(stats1.CacheHits-stats0.CacheHits), float64(stats1.CacheHits-stats0.CacheHits+stats1.CacheMisses-stats0.CacheMisses))
	o.noise["gc_cycles_timed"] = float64(m1.cycles - m0.cycles)
	o.noise["stream_s"] = streamEnd.Sub(start).Seconds()
	// The rebuild's share of freshness: the mean epoch as the ingester
	// timed it, from the snapshot under lock to the swap.
	o.noise["epoch_ms"] = histMeanDelta(snap0, snap1, "ingest.epoch_duration")
	if cfg.trace {
		liveLayers(o, tr, ls, snap0, snap1, stats0, stats1, fresh, readLat, late)
		o.metrics["runtime.alloc_kb_per_req"] = float64(m1.alloc-m0.alloc) / 1024 / float64(len(all))
		o.metrics["ingest.queue_depth_max"] = float64(queueMax)
	}

	// Drain: Close publishes whatever the stream left unpublished, then
	// the checks run on the final state.
	ls.front.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ls.ing.Close(ctx); err != nil {
		return err
	}
	if cfg.trace {
		replayBrowse(o, readsFor(reads, nReads), nReads, []*browse.Interface{ls.ing.Current()})
		// The replay runs against the final epoch alone, which never
		// swaps; the hit rate that counts is the one the live engines
		// recorded while every epoch swap emptied the query cache.
		hits := snap1.Counters["browse.query_cache.hits"] - snap0.Counters["browse.query_cache.hits"]
		misses := snap1.Counters["browse.query_cache.misses"] - snap0.Counters["browse.query_cache.misses"]
		o.metrics["browse.query_cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
		if err := tr.write(tracePath(cfg, "live_ingest")); err != nil {
			return err
		}
	}
	o.check(checkLive(ls, nDocs))
	return nil
}

// readsFor expands the cycling read mix to the n requests sent.
func readsFor(reads []string, n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = reads[k%len(reads)]
	}
	return out
}

// postDoc sends one streamed document to the ingest endpoint.
func postDoc(hc *http.Client, base string, d facet.Document, id int64, tr *tracer, buf *bytes.Buffer) error {
	body, err := json.Marshal(serve.IngestRequest{Documents: []serve.IngestDoc{{
		Title: d.Title, Source: d.Source, Date: d.Date.Format(time.RFC3339Nano), Text: d.Text,
	}}})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return send(hc, req, "ingest", id, tr, buf)
}

func getRead(hc *http.Client, base, path string, id int64, tr *tracer, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	return send(hc, req, strings.TrimPrefix(path, "/api/v1/"), id, tr, buf)
}

// send issues one request, recording a client span while tracing is
// on; any transport error or non-2xx answer is an error.
func send(hc *http.Client, req *http.Request, key string, id int64, tr *tracer, buf *bytes.Buffer) error {
	traced := tr.enabled.Load()
	if traced {
		req.Header.Set(reqIDHeader, itoa(id))
	}
	t0 := tr.now()
	status, err := do(hc, req, buf)
	if traced {
		tr.add(span{ID: id, Name: "client", Start: t0, End: tr.now(), Parent: -1, Key: key})
	}
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, status, firstLine(buf.Bytes()))
	}
	return nil
}

// checkLive verifies the final state: every streamed document was
// published with no dead letter, and the final epoch's facet terms
// equal a batch run over the same documents.
func checkLive(ls *liveSystem, streamed int) error {
	st := ls.ing.Stats()
	if want := int64(liveBootDocs + streamed); st.DocsPublished != want || st.DocsIngested != want {
		return fmt.Errorf("published %d, ingested %d documents, want %d (bootstrap + accepted)", st.DocsPublished, st.DocsIngested, want)
	}
	if st.DeadLetters != 0 || st.AnalysisFailures != 0 {
		return fmt.Errorf("%d dead letters, %d failed analyses", st.DeadLetters, st.AnalysisFailures)
	}
	if st.PersistedDocs != int64(liveBootDocs+streamed) {
		return fmt.Errorf("persisted %d documents, want %d", st.PersistedDocs, liveBootDocs+streamed)
	}
	// The batch run uses the ingester's own extractors: the Yahoo-style
	// extractor is calibrated on the corpus it was built over (the
	// bootstrap), and the batch must extract what the stream extracted.
	corpus := textdb.NewCorpus()
	for _, d := range append(append([]facet.Document(nil), ls.boot...), ls.stream[:streamed]...) {
		corpus.Add(&textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
	}
	p, err := core.New(core.Config{Extractors: ls.exs, Resources: ls.rs, TopK: 120})
	if err != nil {
		return err
	}
	res, err := p.Run(corpus)
	if err != nil {
		return err
	}
	if got, want := strings.Join(ls.ing.FacetTerms(), "\n"), strings.Join(res.FacetTermStrings(), "\n"); got != want {
		return fmt.Errorf("final epoch's facet terms differ from a batch run over the same documents")
	}
	return nil
}

// liveLayers fills the live workload's per-layer figures from the spans,
// the registry (histograms read as Sum/Count) and the ingester's stats.
func liveLayers(o *outcome, tr *tracer, ls *liveSystem, snap0, snap1 obsv.Snapshot, stats0, stats1 ingest.Stats, fresh, readLat, late []float64) {
	spans := tr.snapshot()
	// Tracing is on in every other window, so the analysis time is per
	// document analysed while it was on: the ingester calls each
	// extractor once per document, the first (NE) included.
	var analyze time.Duration
	var analysed float64
	for _, s := range spans {
		if strings.HasSuffix(s.Name, ".extract") || strings.HasSuffix(s.Name, ".context") {
			analyze += s.dur()
		}
		if s.Name == "ner.extract" {
			analysed++
		}
	}
	o.metrics["ingest.analyze_ms_per_doc"] = ratio(ms(analyze), analysed)
	hits, misses := stats1.CacheHits-stats0.CacheHits, stats1.CacheMisses-stats0.CacheMisses
	o.metrics["ingest.cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	epochs := float64(stats1.Epochs - stats0.Epochs)
	o.metrics["ingest.epochs"] = epochs
	o.metrics["ingest.epoch_ms"] = histMeanDelta(snap0, snap1, "ingest.epoch_duration")
	o.metrics["ingest.docs_per_epoch"] = ratio(float64(snap1.Counters["ingest.epoch_published_docs"]-snap0.Counters["ingest.epoch_published_docs"]), epochs)
	o.metrics["ingest.dead_letters"] = float64(stats1.DeadLetters)
	ft := tailOf(fresh)
	o.metrics["ingest.fresh_tail_ms"] = ft.Value
	o.metrics["ingest.fresh_tail_pct"] = ft.P
	o.metrics["ingest.read_p99_ms"] = percentileOf(readLat, 99)
	o.metrics["textdb.segment_append_ms"] = histMeanDelta(snap0, snap1, "textdb.segment_append")
	o.metrics["snapshot.save_ms"] = histMeanDelta(snap0, snap1, "snapshot.save_duration")
	o.metrics["snapshot.kb"] = float64(snap1.Gauges["snapshot.size_bytes"]) / 1024
	o.metrics["overload.read.queue_wait_ms"], o.metrics["overload.read.shed"] = overloadRead([]*obsv.Registry{ls.reg})
	lt := tailOf(late)
	o.metrics["gen.late_ms"] = lt.Value
	var all []float64
	for _, s := range spans {
		if s.Name == "client" {
			all = append(all, ms(s.dur()))
		}
	}
	o.metrics["client.p99_ms"] = percentileOf(all, 99)
	o.metrics["client.requests"] = float64(len(all))
	readLayers(o, spans, false)
}

// histMeanDelta is the mean in ms of the observations a registry
// histogram received between two snapshots.
func histMeanDelta(a, b obsv.Snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	return ratio(hb.SumMillis-ha.SumMillis, float64(hb.Count-ha.Count))
}
