package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
)

const (
	// readDocs is facetserve's default corpus size, drawn from MNYT: 30
	// days of stories, so date filters select documents.
	readDocs = 600
	// readClients closed-loop clients: two repeated better than one.
	readClients = 2
	// mixLen requests are drawn per run; clients walk them in order and
	// wrap around. It holds far more distinct selections than the
	// engine's query cache (browse.DefaultQueryCacheSize), so the cache
	// both hits and misses.
	mixLen = 1 << 16
	// warmupRequests per client run before timing starts.
	warmupRequests = 500
	// sampleEvery: every sampleEvery-th request's body is kept for the
	// output check.
	sampleEvery = 61
	// shardNames is the ring of fanout_read.
	shardCount = 3
)

// readSystem is a set-up read workload: the engine and the servers in
// front of it.
type readSystem struct {
	iface *browse.Interface
	// front is the listener the clients call: the single node, or the
	// coordinator for fanout_read.
	front *server
	// handler answers the output check in process: browse_read's own
	// server, which fanout_read's answers must equal byte for byte.
	handler http.Handler
	shards  []*server
	// shardIfaces are the shard engines (fanout_read).
	shardIfaces []*browse.Interface
	regs        []*obsv.Registry
	coordReg    *obsv.Registry
	// build is corpus → serving state published (pipeline, engine,
	// shards, listeners).
	build time.Duration
	once  sync.Once
}

func (s *readSystem) stop() {
	s.once.Do(func() { stopAll(append([]*server{s.front}, s.shards...)...) })
}

// setupRead builds the frozen MNYT engine the way facetserve's batch mode
// does (metrics registry, overload governor) and puts it behind a
// loopback listener, or slices it into shards behind a coordinator.
func setupRead(seed uint64, fanout bool, tr *tracer) (*readSystem, error) {
	env, err := newEnv()
	if err != nil {
		return nil, err
	}
	docs, err := generateCorpus(env, "MNYT", readDocs, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	metrics := obsv.NewRegistry()
	iface, err := buildEngine(env, docs, metrics)
	if err != nil {
		return nil, err
	}
	gov := overload.NewGovernor(overload.GovernorConfig{Metrics: metrics})
	srv := serve.New(iface, "MNYT archive", serve.WithMetrics(metrics), serve.WithOverload(gov))
	rs := &readSystem{iface: iface, handler: srv, regs: []*obsv.Registry{metrics}}
	if !fanout {
		if rs.front, err = startServer(tr.handler("serve", srv)); err != nil {
			return nil, err
		}
		rs.build = time.Since(start)
		return rs, nil
	}
	names := make([]string, shardCount)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		return nil, err
	}
	var peers []cluster.Peer
	for _, name := range names {
		sh, err := cluster.BuildShard(iface, ring, name)
		if err != nil {
			rs.stop()
			return nil, err
		}
		reg := obsv.NewRegistry()
		ssrv := serve.New(sh.Interface(), "MNYT archive — shard "+name, serve.WithMetrics(reg),
			serve.WithOverload(overload.NewGovernor(overload.GovernorConfig{Metrics: reg})))
		sh.Register(ssrv)
		s, err := startServer(tr.handler("shard", ssrv))
		if err != nil {
			rs.stop()
			return nil, err
		}
		rs.shards = append(rs.shards, s)
		rs.shardIfaces = append(rs.shardIfaces, sh.Interface())
		rs.regs = append(rs.regs, reg)
		peers = append(peers, cluster.Peer{Name: name, BaseURL: s.URL})
	}
	rs.coordReg = obsv.NewRegistry()
	coord, err := cluster.NewCoordinator(peers, cluster.Config{
		Timeout:  2 * time.Second,
		Metrics:  rs.coordReg,
		Governor: overload.NewGovernor(overload.GovernorConfig{Metrics: rs.coordReg}),
	})
	if err != nil {
		rs.stop()
		return nil, err
	}
	rs.regs = append(rs.regs, rs.coordReg)
	if rs.front, err = startServer(tr.handler("coordinator", coord)); err != nil {
		rs.stop()
		return nil, err
	}
	rs.build = time.Since(start)
	return rs, nil
}

// buildEngine runs the offline pipeline as facetserve does (TopK 120,
// metrics on), at one worker.
func buildEngine(env *facet.Environment, docs []facet.Document, metrics *obsv.Registry) (*browse.Interface, error) {
	sys, err := facet.NewSystem(env, facet.Options{TopK: 120, Workers: 1})
	if err != nil {
		return nil, err
	}
	sys.SetMetrics(metrics)
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		return nil, err
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		return nil, err
	}
	iface, err := res.BrowseEngine(h)
	if err != nil {
		return nil, err
	}
	iface.SetMetrics(metrics)
	return iface, nil
}

// closedLoop is the state the read clients share: the mix, the next
// request index and the tracer.
type closedLoop struct {
	base string
	mix  []string
	next atomic.Int64
	tr   *tracer
}

// clientStats is what one client measured in one phase.
type clientStats struct {
	lat      []float64 // ms
	at       []float64 // completion time, seconds on the tracer's clock
	bytes    int64
	failed   int64
	firstErr error
	samples  map[int64][]byte
}

// phase runs the clients until the deadline and returns their stats
// merged. Keep-alive connections persist across phases.
func (cl *closedLoop) phase(clients []*http.Client, until time.Time, count int, traced bool) clientStats {
	var wg sync.WaitGroup
	per := make([]clientStats, len(clients))
	for c, hc := range clients {
		wg.Add(1)
		go func(c int, hc *http.Client) {
			defer wg.Done()
			per[c] = cl.run(hc, until, count, traced)
		}(c, hc)
	}
	wg.Wait()
	var all clientStats
	all.samples = map[int64][]byte{}
	for _, p := range per {
		all.lat = append(all.lat, p.lat...)
		all.at = append(all.at, p.at...)
		all.bytes += p.bytes
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		for k, v := range p.samples {
			all.samples[k] = v
		}
	}
	return all
}

// run is one closed-loop client: send, wait for the whole response, send
// the next. It stops at until, or after count requests when count > 0.
func (cl *closedLoop) run(hc *http.Client, until time.Time, count int, traced bool) clientStats {
	st := clientStats{samples: map[int64][]byte{}}
	var buf bytes.Buffer
	for n := 0; count <= 0 || n < count; n++ {
		if count <= 0 && !time.Now().Before(until) {
			break
		}
		i := cl.next.Add(1) - 1
		path := cl.mix[i%int64(len(cl.mix))]
		req, err := http.NewRequest(http.MethodGet, cl.base+path, nil)
		if err != nil {
			st.fail(err)
			continue
		}
		if traced {
			req.Header.Set(reqIDHeader, itoa(i+1))
		}
		t0 := cl.tr.now()
		status, err := do(hc, req, &buf)
		t1 := cl.tr.now()
		st.lat = append(st.lat, ms(t1-t0))
		st.at = append(st.at, t1.Seconds())
		st.bytes += int64(buf.Len())
		if traced {
			cl.tr.add(span{ID: i + 1, Name: "client", Start: t0, End: t1, Parent: -1, Key: strings.TrimPrefix(path, "/api/v1/")})
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: HTTP %d: %s", path, status, firstLine(buf.Bytes()))
		}
		if err != nil {
			st.fail(err)
			continue
		}
		if i%sampleEvery == 0 {
			st.samples[i] = append([]byte(nil), buf.Bytes()...)
		}
	}
	return st
}

func (st *clientStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// do sends req and reads the whole body into buf.
func do(hc *http.Client, req *http.Request, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// newClient is one keep-alive connection's worth of HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func closeClients(clients []*http.Client) {
	for _, c := range clients {
		c.CloseIdleConnections()
	}
}

func runRead(cfg runConfig, fanout bool) (*outcome, error) {
	tr := newTracer()
	var builds []float64
	o, err := measured(cfg, func() (*readSystem, error) {
		rs, err := setupRead(cfg.seed, fanout, tr)
		if err == nil {
			builds = append(builds, ms(rs.build))
		}
		return rs, err
	}, func(rs *readSystem) { rs.stop() }, func(rs *readSystem, o *outcome) error {
		return measureRead(cfg, rs, tr, fanout, o)
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// The same set-ups as setup_s, spread over the run.
		o.metrics["fresh_p50_ms"] = median(builds)
	}
	return o, nil
}

// measureRead warms the clients up, runs the timed phase, stops the
// servers and checks the sampled answers.
func measureRead(cfg runConfig, rs *readSystem, tr *tracer, fanout bool, o *outcome) error {
	mix := buildMix(vocabOf(rs.iface), cfg.seed, mixLen)
	cl := &closedLoop{base: rs.front.URL, mix: mix, tr: tr}
	clients := make([]*http.Client, readClients)
	for i := range clients {
		clients[i] = newClient()
	}
	defer closeClients(clients)
	warm := cl.phase(clients, time.Time{}, warmupRequests, false)
	o.attempted += int64(len(warm.lat))
	o.fail(warm.failed, warm.firstErr)
	from := cl.next.Load()

	var samples map[int64][]byte
	var replayN int
	var err error
	if cfg.trace {
		samples, replayN, err = tracedRead(cfg, rs, cl, clients, fanout, o)
	} else {
		samples, err = untracedRead(cfg, rs, cl, clients, from, o)
	}
	if err != nil {
		return err
	}

	// The servers stop before the checks and the replay touch the
	// engines, so no straggling shard attempt shares them.
	closeClients(clients)
	rs.stop()

	// Output check, outside the timed phase: every sampled response
	// equals the single node's in-process answer.
	o.check(checkSamples(mix, samples, rs.handler))
	o.noise["checked_samples"] = float64(len(samples))

	if cfg.trace {
		engines := []*browse.Interface{rs.iface}
		if fanout {
			engines = rs.shardIfaces
		}
		replayBrowse(o, mix[from%mixLen:], replayN, engines)
		return tr.write(tracePath(cfg, map[bool]string{false: "browse_read", true: "fanout_read"}[fanout]))
	}
	return nil
}

// untracedRead is the timed phase of an untraced run: the clients run
// for the run's length and the end-to-end metrics come from 2 s windows.
func untracedRead(cfg runConfig, rs *readSystem, cl *closedLoop, clients []*http.Client, from int64, o *outcome) (map[int64][]byte, error) {
	hits0, misses0 := cacheCounters(rs.regs[0])
	c0, m0, steal, t0, clock0 := cpuTime(), readMem(), startSteal(), time.Now(), cl.tr.now()
	st := cl.phase(clients, t0.Add(cfg.seconds), 0, false)
	cpu, m1 := cpuTime()-c0, readMem()
	o.noise["steal_share"] = steal.share()
	n := int64(len(st.lat))
	o.attempted += n
	o.fail(st.failed, st.firstErr)
	if n == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	o.metrics["ops_per_s"], o.metrics["p50_ms"] = windowed(st.at, st.lat, clock0.Seconds(), cfg.seconds.Seconds(), windows(cfg.seconds))
	o.metrics["cpu_ms_per_op"] = ms(cpu) / float64(n)
	hits1, misses1 := cacheCounters(rs.regs[0])
	o.noise["requests"] = float64(n)
	o.noise["distinct_selections"] = float64(distinctSelections(cl.mix[from%mixLen:], int(n)))
	if rs.shards == nil { // facetserve wires no metrics into shard engines
		o.noise["query_cache_hit_rate"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	}
	o.noise["hedges"], o.noise["shard_errors"] = clusterCounters(rs.coordReg)
	o.noise["shard_conns"] = float64(acceptedConns(rs.shards))
	o.noise["gc_cycles_timed"] = float64(m1.cycles - m0.cycles)
	return st.samples, nil
}

// tracedRead is the timed phase of a traced run. It alternates untraced
// and traced windows of windowSeconds, so both see the same host and the
// same stretch of the mix; trace.overhead_share compares their CPU time
// per request. The client-side figures come from the untraced windows,
// the layer figures from the spans of the traced ones. It returns the
// sampled answers and how many requests the untraced windows sent, which
// is how many the browse replay repeats.
func tracedRead(cfg runConfig, rs *readSystem, cl *closedLoop, clients []*http.Client, fanout bool, o *outcome) (map[int64][]byte, int, error) {
	k := windows(cfg.seconds)
	if k < 2 {
		k = 2
	}
	width := cfg.seconds / time.Duration(k)
	samples := map[int64][]byte{}
	var plainLat []float64
	var plainCPU, tracedCPU time.Duration
	var plainAlloc uint64
	var tracedN, tracedBytes int64
	for w := 0; w < k; w++ {
		traced := w%2 == 1
		cl.tr.enabled.Store(traced)
		c0, m0 := cpuTime(), readMem()
		st := cl.phase(clients, time.Now().Add(width), 0, traced)
		cpu, m1 := cpuTime()-c0, readMem()
		cl.tr.enabled.Store(false)
		o.attempted += int64(len(st.lat))
		o.fail(st.failed, st.firstErr)
		for id, b := range st.samples {
			samples[id] = b
		}
		if traced {
			tracedCPU += cpu
			tracedN += int64(len(st.lat))
			tracedBytes += st.bytes
		} else {
			plainCPU += cpu
			plainLat = append(plainLat, st.lat...)
			plainAlloc += m1.alloc - m0.alloc
		}
	}
	n := len(plainLat)
	if n == 0 || tracedN == 0 {
		return nil, 0, fmt.Errorf("no request completed")
	}
	tail := tailOf(plainLat)
	o.metrics["client.p99_ms"] = percentileOf(plainLat, 99)
	o.metrics["client.requests"] = float64(n)
	o.metrics["runtime.alloc_kb_per_req"] = float64(plainAlloc) / 1024 / float64(n)
	o.noise["client_tail_pct"] = tail.P
	o.noise["client_tail_ms"] = tail.Value
	o.metrics["trace.overhead_share"] = overheadShare(tracedCPU, float64(tracedN), plainCPU, float64(n))
	o.metrics["serve.resp_kb"] = float64(tracedBytes) / 1024 / float64(tracedN)
	readLayers(o, cl.tr.snapshot(), fanout)
	o.metrics["overload.read.queue_wait_ms"], o.metrics["overload.read.shed"] = overloadRead(rs.regs)
	o.metrics["cluster.hedges"], o.metrics["cluster.shard_errors"] = clusterCounters(rs.coordReg)
	o.metrics["cluster.shard_conns"] = float64(acceptedConns(rs.shards))
	return samples, n, nil
}

func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if beyond(len(s), p) < 10 {
		return 0
	}
	return percentile(s, p)
}

// checkSamples compares each kept response body with the reference
// handler's answer to the same request on an in-process recorder.
func checkSamples(mix []string, samples map[int64][]byte, ref http.Handler) error {
	ids := make([]int64, 0, len(samples))
	for i := range samples {
		ids = append(ids, i)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, i := range ids {
		path := mix[i%int64(len(mix))]
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("check %s: reference answered HTTP %d", path, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), samples[i]) {
			return fmt.Errorf("check %s: response differs from the single node's (%d vs %d bytes)", path, len(samples[i]), rec.Body.Len())
		}
	}
	return nil
}

func cacheCounters(reg *obsv.Registry) (hits, misses int64) {
	s := reg.Snapshot()
	return s.Counters["browse.query_cache.hits"], s.Counters["browse.query_cache.misses"]
}

// clusterCounters sums the coordinator's per-shard hedge and error
// counters (0, 0 without a coordinator).
func clusterCounters(reg *obsv.Registry) (hedges, errs float64) {
	if reg == nil {
		return 0, 0
	}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "cluster.shard.") {
			switch {
			case strings.HasSuffix(name, ".hedges"):
				hedges += float64(v)
			case strings.HasSuffix(name, ".errors"):
				errs += float64(v)
			}
		}
	}
	return hedges, errs
}

func acceptedConns(servers []*server) int64 {
	var n int64
	for _, s := range servers {
		n += s.accepted.Load()
	}
	return n
}

// overloadRead reads the read class's queue wait (mean ms, from the
// histogram's Sum/Count) and shed count across registries.
func overloadRead(regs []*obsv.Registry) (waitMS, shed float64) {
	var sum float64
	var count int64
	for _, reg := range regs {
		s := reg.Snapshot()
		h := s.Histograms["overload.read.queue_wait"]
		sum += h.SumMillis
		count += h.Count
		shed += float64(s.Counters["overload.read.shed"])
	}
	return ratio(sum, float64(count)), shed
}

// readLayers turns the traced phase's spans into the serving layers'
// figures. Server spans join their client span by request id; shard
// spans join their coordinator request by time containment and query.
func readLayers(o *outcome, spans []span, fanout bool) {
	front := "serve"
	if fanout {
		front = "coordinator"
		joinByContainment(spans, "coordinator", "shard")
	}
	clientOf := map[int64]int{}
	for i, s := range spans {
		if s.Name == "client" {
			clientOf[s.ID] = i
		}
	}
	for i := range spans {
		if spans[i].Name == front {
			if c, ok := clientOf[spans[i].ID]; ok {
				spans[i].Parent = c
			}
		}
	}
	self := selfTimes(spans)
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	routeSum, routeN := map[string]float64{}, map[string]float64{}
	var loop, coordSum, shardSum, mergeSum, nFront float64
	for i, s := range spans {
		switch s.Name {
		case "serve", "shard":
			r := routeOf(s.Key)
			routeSum[r] += ms(s.dur())
			routeN[r]++
		case "client":
			for _, k := range kids[i] {
				loop += ms(s.dur() - spans[k].dur())
				nFront++
			}
		}
		if s.Name == "coordinator" {
			coordSum += ms(s.dur())
			mergeSum += ms(self[i])
			var slowest time.Duration
			for _, k := range kids[i] {
				if d := spans[k].dur(); d > slowest {
					slowest = d
				}
			}
			shardSum += ms(slowest)
		}
	}
	for _, r := range []string{"facets", "docs", "dates", "cross", "ingest"} {
		o.metrics["serve."+r+"_ms"] = ratio(routeSum[r], routeN[r])
	}
	o.metrics["http.loopback_ms"] = ratio(loop, nFront)
	if fanout {
		var nCoord float64
		for _, s := range spans {
			if s.Name == "coordinator" {
				nCoord++
			}
		}
		o.metrics["cluster.coordinator_ms"] = ratio(coordSum, nCoord)
		o.metrics["cluster.shard_ms"] = ratio(shardSum, nCoord)
		o.metrics["cluster.merge_self_ms"] = ratio(mergeSum, nCoord)
	}
}

// replayBrowse replays the first n requests of the timed mix against the
// browse.Interface methods the handlers call (the calls happen inside
// serve and cannot be wrapped), one engine after another, from an empty
// query cache. Times are per request, summed over the engines (the
// shards of fanout_read each do a part of the work).
func replayBrowse(o *outcome, mix []string, n int, engines []*browse.Interface) {
	reg := obsv.NewRegistry()
	for _, e := range engines {
		e.ResetQueryCache()
		e.SetMetrics(reg)
	}
	sum := map[string]time.Duration{}
	cnt := map[string]float64{}
	timeIt := func(name string, fn func()) {
		t := time.Now()
		fn()
		sum[name] += time.Since(t)
	}
	if n > len(mix) {
		n = len(mix)
	}
	for i := 0; i < n; i++ {
		u, err := url.Parse(mix[i])
		if err != nil {
			continue
		}
		sel, err := serve.ParseSelection(&http.Request{URL: u})
		if err != nil {
			continue
		}
		q := u.Query()
		var name string
		for _, e := range engines {
			switch routeOf(mix[i]) {
			case "facets":
				timeIt("children", func() { e.Children(q.Get("parent"), sel) })
				timeIt("match_count", func() { e.MatchCount(sel) })
				cnt["children"]++
				cnt["match_count"]++
				continue
			case "docs":
				name = "docs"
				if sel.Query != "" {
					name = "search"
				}
				timeIt(name, func() { e.Docs(sel) })
			case "dates":
				name = "date_histogram"
				timeIt(name, func() { _, _ = e.DateHistogram(sel, q.Get("granularity")) })
			case "cross":
				name = "cross"
				timeIt(name, func() { _, _ = e.Cross(q.Get("a"), q.Get("b"), sel) })
			}
			cnt[name]++
		}
	}
	per := float64(len(engines))
	for _, name := range []string{"children", "match_count", "docs", "date_histogram", "cross", "search"} {
		// Mean per request: the engines' calls for one request add up.
		o.metrics["browse."+name+"_us"] = ratio(float64(sum[name].Microseconds()), cnt[name]/per)
	}
	hits, misses := cacheCounters(reg)
	o.metrics["browse.query_cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
}
