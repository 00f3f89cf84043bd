// Command facetserve builds a faceted browsing interface over a news
// archive and serves it over HTTP: a server-rendered front end at /, a
// versioned JSON API under /api/v1/ (facets, docs, dates, cross,
// metrics; the deprecated unversioned /api/ aliases have been removed
// and now answer 404), and — with -live — streaming document intake
// with incremental facet rebuilds.
//
// Observability: GET /api/v1/metrics returns a JSON snapshot of every
// counter, gauge, and latency histogram (per-route HTTP metrics, ingest
// queue/epoch state, segment-store timing); -pprof additionally mounts
// the runtime profiler under /debug/pprof/; -access-log writes one JSON
// line per request to stderr.
//
// Batch mode (default) generates a corpus, extracts facets once, and
// serves the frozen interface:
//
//	facetserve [-addr :8080] [-docs 600] [-profile SNYT] [-seed 42]
//
// Live mode turns the server into a long-running ingestion service:
// documents POSTed to /api/v1/ingest stream through the extraction pipeline,
// the hierarchy is rebuilt every -epoch-docs documents (or -max-staleness
// interval), and the browsing interface is swapped atomically with zero
// downtime. With -store, accepted documents are durably persisted as
// append-only segments and a restarted server warm-starts from disk:
//
//	facetserve -live [-store DIR] [-epoch-docs 200] [-max-staleness 30s]
//
// Cluster mode (-role) scales serving beyond one process:
//
//	facetserve -role=shard -shard-name=a -cluster-shards=a,b,c   # one partition
//	facetserve -role=coordinator -peers=a=http://h1,b=http://h2,c=http://h3
//	facetserve -role=leader -snapshot state.fsnp                 # ships epochs
//	facetserve -role=replica -peers=http://leader:8080           # pulls epochs
//
// Shards build the same deterministic corpus and hierarchy, slice it by
// the consistent-hash ring, and serve their partition; the coordinator
// scatter-gathers across them and answers byte-identically to a single
// node (degrading explicitly when shards are down). A leader serves the
// whole corpus and ships each published epoch's snapshot bytes; replicas
// pull, rehydrate, and swap atomically, reporting replication lag via
// /api/v1/readyz.
//
// Every role runs one path, and every role shuts down gracefully on
// SIGINT/SIGTERM: HTTP stops accepting and finishes in-flight requests,
// then a live node drains its intake and publishes and persists a final
// epoch. A second signal ends the process at once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	facet "repro"
	"repro/internal/browse"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/obsv"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/textdb"
)

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// server is one facetserve process: its flags plus what every role
// shares.
type server struct {
	addr, profile, resources, hierarchy, store, snapshot string
	role, peers, shardName, clusterShards                string
	docs, topK, epochDocs, queue, cache                  int
	overloadLimit, overloadQueue                         int
	seed, maxLag                                         uint64
	live, corpusFallback, pprof, accessLog, overload     bool
	maxStaleness, shardTimeout, pollInterval             time.Duration

	// http is the one listener's server. Without its timeouts a single
	// slow-loris client holds a connection and its goroutine forever.
	http      *http.Server
	log       *log.Logger
	metrics   *obsv.Registry
	gov       *overload.Governor
	serveOpts []serve.Option
}

// run starts the role args select and serves it until ctx ends or
// SIGINT/SIGTERM arrives, then shuts down gracefully and returns nil.
// It returns an error when start-up fails or is cancelled.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	s, err := newServer(args, stderr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Restore default signal handling once ctx is done, so a second signal
	// ends a step that ignores ctx (a live bootstrap, a stuck drain).
	context.AfterFunc(ctx, stop)

	var h http.Handler
	var closeRole func()
	switch s.role {
	case "coordinator":
		h, err = s.coordinator()
	case "replica":
		h, closeRole, err = s.replica(ctx)
	case "", "shard", "leader":
		h, closeRole, err = s.node(ctx)
	default:
		err = fmt.Errorf("unknown -role %q (want shard, coordinator, leader, or replica)", s.role)
	}
	if err != nil {
		return err
	}
	if closeRole != nil {
		defer closeRole()
	}
	return s.serve(ctx, h)
}

// newServer parses the flags, rejects combinations that cannot start,
// and wires what every role shares.
func newServer(args []string, stderr io.Writer) (*server, error) {
	s := &server{http: &http.Server{}, log: log.New(stderr, "", 0), metrics: obsv.NewRegistry()}
	// Like flag.Parse: a bad flag prints the usage and exits 2, -h exits 0.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&s.addr, "addr", ":8080", "listen address")
	fs.IntVar(&s.docs, "docs", 600, "number of documents to generate")
	fs.StringVar(&s.profile, "profile", "SNYT", "dataset profile")
	fs.Uint64Var(&s.seed, "seed", 42, "seed")
	fs.IntVar(&s.topK, "topk", 120, "facet terms to extract")
	fs.StringVar(&s.resources, "resources", "", "comma-separated context resources (Google, WordNet Hypernyms, Wikipedia Synonyms, Wikipedia Graph, Distributional; alias corpus = corpus-only mode); empty = the four external ones")
	fs.BoolVar(&s.corpusFallback, "corpus-fallback", false, "degraded-fallback: when every external resource fails a lookup, fall back to a corpus-only distributional model instead of running context-free")
	fs.StringVar(&s.hierarchy, "hierarchy", "", "hierarchy builder registry name (subsumption, evidence, treemin, agglomerative; \"\" = subsumption); live mode rebuilds every epoch with it")
	fs.BoolVar(&s.live, "live", false, "enable streaming ingestion (POST /api/v1/ingest) with incremental rebuilds")
	fs.StringVar(&s.store, "store", "", "segment store directory for durable intake (live mode; empty = in-memory only)")
	fs.IntVar(&s.epochDocs, "epoch-docs", 200, "rebuild the hierarchy after this many new documents (live mode)")
	fs.DurationVar(&s.maxStaleness, "max-staleness", 30*time.Second, "also rebuild when intake has waited this long (live mode; 0 disables)")
	fs.IntVar(&s.queue, "queue", 1024, "bounded intake queue capacity (live mode)")
	fs.IntVar(&s.cache, "cache", 4096, "resource LRU cache entries (live mode)")
	fs.BoolVar(&s.pprof, "pprof", false, "mount the runtime profiler under /debug/pprof/")
	fs.BoolVar(&s.accessLog, "access-log", false, "write one JSON access-log line per request to stderr")
	fs.StringVar(&s.snapshot, "snapshot", "", "serving-state snapshot file: batch mode warm-starts from it when present (skipping the pipeline) and writes it after a cold build; live mode rewrites it after every published epoch")
	fs.StringVar(&s.role, "role", "", "cluster role: empty (single node), shard, coordinator, leader, or replica")
	fs.StringVar(&s.peers, "peers", "", "coordinator: shard peers as name=url,name=url; replica: the leader's base URL")
	fs.StringVar(&s.shardName, "shard-name", "", "this shard's ring name (role=shard)")
	fs.StringVar(&s.clusterShards, "cluster-shards", "", "comma-separated ring membership, identical on every shard (role=shard)")
	fs.DurationVar(&s.shardTimeout, "shard-timeout", 2*time.Second, "coordinator: per-shard fan-out deadline (hedged retry fires at a quarter of it)")
	fs.DurationVar(&s.pollInterval, "poll-interval", 2*time.Second, "replica: snapshot poll cadence")
	fs.Uint64Var(&s.maxLag, "max-lag", 1, "replica: replication lag in epochs beyond which readyz fails")
	fs.BoolVar(&s.overload, "overload", true, "adaptive admission control: per-class concurrency limits (AIMD on observed latency) shedding excess load as 429/503 + Retry-After")
	fs.IntVar(&s.overloadLimit, "overload-limit", 0, "initial concurrency limit per admission class (0 = per-class defaults: read 64, expensive 8, write 16)")
	fs.IntVar(&s.overloadQueue, "overload-queue", 0, "bounded admission wait-queue length per class (0 = per-class defaults; queued requests shed when their deadline budget fires)")
	fs.DurationVar(&s.http.ReadHeaderTimeout, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (closes slowloris connections)")
	fs.DurationVar(&s.http.ReadTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout (full request including body)")
	fs.DurationVar(&s.http.WriteTimeout, "write-timeout", 60*time.Second, "http.Server WriteTimeout (full response)")
	fs.DurationVar(&s.http.IdleTimeout, "idle-timeout", 120*time.Second, "http.Server IdleTimeout (keep-alive connections)")
	fs.IntVar(&s.http.MaxHeaderBytes, "max-header-bytes", 1<<20, "http.Server MaxHeaderBytes")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case s.role == "shard" && s.live:
		return nil, errors.New("-role=shard is incompatible with -live: shards slice a frozen epoch; use a leader with replicas for live serving")
	case s.role == "shard" && (s.shardName == "" || s.clusterShards == ""):
		return nil, errors.New("-role=shard needs -shard-name and -cluster-shards")
	case s.role == "replica" && s.peers == "":
		return nil, errors.New("-role=replica needs -peers=<leader base URL>")
	}

	// One registry spans every layer: HTTP routes, the ingester, and the
	// segment store all surface through GET /api/v1/metrics.
	s.serveOpts = []serve.Option{serve.WithMetrics(s.metrics)}
	if s.accessLog {
		s.serveOpts = append(s.serveOpts, serve.WithAccessLog(stderr))
	}
	// One admission governor shared by every route class; the AIMD loop
	// re-learns the real capacity from any starting limit.
	if s.overload {
		gcfg := overload.GovernorConfig{Metrics: s.metrics}
		for _, class := range []*overload.Config{&gcfg.Read, &gcfg.Expensive, &gcfg.Write} {
			if s.overloadLimit > 0 {
				class.InitialLimit = s.overloadLimit
			}
			if s.overloadQueue > 0 {
				class.Queue = s.overloadQueue
			}
		}
		s.gov = overload.NewGovernor(gcfg)
		s.serveOpts = append(s.serveOpts, serve.WithOverload(s.gov))
	}
	return s, nil
}

// serve is the one listen site. It logs the bound address after Listen
// (with -addr :0 that line is how callers learn the port), serves h
// until ctx ends, then stops accepting and waits for in-flight requests.
func (s *server) serve(ctx context.Context, h http.Handler) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return err
	}
	s.http.Handler = h
	s.log.Printf("listening on http://%s", ln.Addr())
	served := make(chan error, 1)
	go func() { served <- s.http.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	s.log.Printf("shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = s.http.Shutdown(shutdownCtx)
	<-served // http.ErrServerClosed
	return err
}

// coordinator builds the scatter-gather front end: no corpus, no
// pipeline, just fan-out over the shard peers.
func (s *server) coordinator() (http.Handler, error) {
	peers, err := cluster.ParsePeers(s.peers)
	if err != nil {
		return nil, fmt.Errorf("%w (coordinator needs -peers=name=url,name=url)", err)
	}
	coord, err := cluster.NewCoordinator(peers, cluster.Config{Timeout: s.shardTimeout, Metrics: s.metrics, Governor: s.gov})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	s.log.Printf("coordinator over %d shards: %s", len(peers), strings.Join(names, ", "))
	return coord, nil
}

// replica pulls the leader's snapshots: it blocks until the first epoch
// is applied, then polls until the returned close func runs. It holds
// no durable state — a restart just re-syncs.
func (s *server) replica(ctx context.Context) (http.Handler, func(), error) {
	leader := strings.TrimRight(s.peers, "/")
	// serve.New needs an interface, so the first applied snapshot (inside
	// WaitSynced, before any traffic) builds the server; later ones swap.
	var srv *serve.Server
	var rep *cluster.Replica
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		LeaderURL:    leader,
		MaxLagEpochs: s.maxLag,
		Metrics:      s.metrics,
		Logf:         s.log.Printf,
	}, func(iface *browse.Interface) {
		if srv != nil {
			srv.Publish(iface)
			return
		}
		srv = serve.New(iface, "replica of "+leader, s.serveOpts...)
		srv.AddReadiness("replication", rep.Ready)
		if s.pprof {
			srv.EnablePprof()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	s.log.Printf("replica: syncing from %s...", leader)
	if err := rep.WaitSynced(ctx, s.pollInterval, 2*time.Minute); err != nil {
		return nil, nil, err
	}
	epoch, _ := rep.AppliedEpoch()
	s.log.Printf("replica: serving epoch %d, polling every %v", epoch, s.pollInterval)
	ctx, cancel := context.WithCancel(ctx)
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		rep.Run(ctx, s.pollInterval)
	}()
	return srv, func() { cancel(); <-polled }, nil
}

// start is a node's first interface and where it came from.
type start struct {
	iface  *browse.Interface
	title  string
	stats  []snapshot.FacetStat // a batch extraction's Step-3 rows
	loaded *snapshot.Snapshot   // a warm start's; its file is never rewritten
	ing    *ingest.Ingester     // live mode: bootstrapped, not started
}

// node serves a plain node, a shard or a leader: it mounts the first
// interface for the role and publishes it, and every later live epoch.
// The returned close func drains a live node's intake.
func (s *server) node(ctx context.Context) (http.Handler, func(), error) {
	first, err := s.start(ctx)
	if err != nil {
		return nil, nil, err
	}
	iface, title := first.iface, first.title
	var shard *cluster.Shard
	if s.role == "shard" {
		names := strings.Split(s.clusterShards, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		ring, err := cluster.NewRing(names, 0)
		if err != nil {
			return nil, nil, err
		}
		if shard, err = cluster.BuildShard(iface, ring, s.shardName); err != nil {
			return nil, nil, err
		}
		s.log.Printf("shard %s: serving %d of %d documents (ring of %d)",
			s.shardName, shard.Len(), iface.Corpus().Len(), len(names))
		iface, title = shard.Interface(), fmt.Sprintf("%s — shard %s", title, s.shardName)
	}
	srv := serve.New(iface, title, s.serveOpts...)
	if shard != nil {
		shard.Register(srv)
	}
	if first.ing != nil {
		srv.EnableIngest(first.ing)
	}
	if s.pprof {
		srv.EnablePprof()
	}

	// publish hands an interface to the server (live epochs swap it), the
	// snapshot file and the shipper.
	var ship *cluster.Shipper
	if s.role == "leader" {
		ship = cluster.NewShipper(s.profile, s.seed, s.metrics)
		ship.Register(srv) // mounted before traffic starts
		s.log.Printf("leader: shipping epochs at /api/v1/cluster/snapshot")
	}
	publish := func(iface *browse.Interface) error {
		if first.ing != nil {
			srv.Publish(iface)
		}
		if s.snapshot != "" && first.loaded == nil {
			s.save(iface, first.stats)
		}
		if ship != nil {
			return ship.Publish(iface)
		}
		return nil
	}
	if err := publish(first.iface); err != nil {
		return nil, nil, err
	}
	if first.loaded != nil {
		go s.validate(first.loaded) // finishes on its own; serving does not wait
	}
	s.log.Printf("serving %s", title)
	ing := first.ing
	if ing == nil {
		return srv, nil, nil
	}
	ing.SetOnPublish(func(iface *browse.Interface) {
		if err := publish(iface); err != nil {
			s.log.Printf("publish epoch %d: %v", iface.Epoch(), err)
		}
	})
	ing.Start()
	return srv, func() {
		s.log.Printf("draining intake and finishing the epoch...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := ing.Close(ctx); err != nil {
			s.log.Printf("ingest close: %v", err)
		}
		st := ing.Stats()
		s.log.Printf("shutdown complete: %d documents ingested, %d persisted", st.DocsIngested, st.PersistedDocs)
	}, nil
}

// start returns a node's first interface: a warm start from a loadable
// -snapshot file (batch mode), one batch extraction, or a live bootstrap.
func (s *server) start(ctx context.Context) (*start, error) {
	if !s.live && s.snapshot != "" {
		iface, snap, err := snapshot.LoadBrowse(s.snapshot, s.metrics)
		if err == nil {
			s.log.Printf("warm start: %s (%d docs, %d posting lists, epoch %d); pipeline skipped", s.snapshot, len(snap.Docs), len(snap.Postings), snap.Meta.Epoch)
			title := fmt.Sprintf("%s archive — %d stories, %d facet terms (snapshot)", snap.Meta.Profile, len(snap.Docs), len(snap.Facets))
			return &start{iface: iface, title: title, loaded: snap}, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			s.log.Printf("snapshot %s unusable (%v); rebuilding from the pipeline", s.snapshot, err)
		}
	}

	env, err := facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: s.seed})
	if err != nil {
		return nil, err
	}
	opts := facet.Options{TopK: s.topK, HierarchyBuilder: s.hierarchy, CorpusFallback: s.corpusFallback}
	if s.resources != "" {
		opts.Resources = strings.Split(s.resources, ",")
	}
	sys, err := facet.NewSystem(env, opts)
	if err != nil {
		return nil, err
	}
	sys.SetMetrics(s.metrics) // pipeline stage timings land in /api/v1/metrics

	// The segment store's documents when it holds some, generated otherwise.
	var store *textdb.Store
	var docs []facet.Document
	if s.live && s.store != "" {
		if store, err = textdb.OpenStore(s.store); err != nil {
			return nil, err
		}
		store.SetMetrics(s.metrics)
		if orphans, err := store.OrphanSegments(); err == nil && len(orphans) > 0 {
			s.log.Printf("note: %d orphan segment(s) in %s from an interrupted append", len(orphans), s.store)
		}
		if store.Docs() > 0 {
			corpus, err := store.LoadAll()
			if err != nil {
				return nil, err
			}
			for i := 0; i < corpus.Len(); i++ {
				d := corpus.Doc(textdb.DocID(i))
				docs = append(docs, facet.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text})
			}
			s.log.Printf("warm-starting from %s: %d documents in %d segments", s.store, store.Docs(), store.Segments())
		}
	}
	restored := len(docs) > 0
	if !restored && s.docs > 0 {
		if docs, err = env.GenerateNewsCorpus(s.profile, s.docs, s.seed+1); err != nil {
			return nil, err
		}
	}
	for _, d := range docs {
		sys.Add(d)
	}
	if !s.live {
		return s.extract(ctx, sys)
	}

	ing, err := ingest.New(ingest.Config{
		Extractors:       sys.CoreExtractors(),
		Resources:        sys.CoreResources(),
		Fallback:         sys.CoreFallback(),
		TopK:             s.topK,
		HierarchyBuilder: s.hierarchy,
		QueueSize:        s.queue,
		EpochDocs:        s.epochDocs,
		MaxStaleness:     s.maxStaleness,
		CacheSize:        s.cache,
		Store:            store,
		Logf:             s.log.Printf,
		Metrics:          s.metrics,
	})
	if err != nil {
		return nil, err
	}
	boot := make([]*textdb.Document, len(docs))
	for i, d := range docs {
		boot[i] = &textdb.Document{Title: d.Title, Source: d.Source, Date: d.Date, Text: d.Text}
	}
	s.log.Printf("bootstrapping live pipeline over %d documents...", len(boot))
	if err := ing.Bootstrap(boot, !restored); err != nil {
		return nil, err
	}
	title := fmt.Sprintf("%s live archive — streaming ingestion enabled", s.profile)
	return &start{iface: ing.Current(), title: title, ing: ing}, nil
}

// extract runs the pipeline once over sys, under ctx.
func (s *server) extract(ctx context.Context, sys *facet.System) (*start, error) {
	s.log.Printf("extracting facets from %d documents...", sys.Len())
	res, err := sys.ExtractFacetsContext(ctx)
	if err != nil {
		return nil, err
	}
	h, err := res.BuildHierarchyWithContext(ctx, "")
	if err != nil {
		return nil, err
	}
	for _, st := range res.StageReport() {
		s.log.Printf("stage %-20s %3d call(s)  %v", st.Stage, st.Calls, st.Total.Round(time.Millisecond))
	}
	iface, err := res.BrowseEngine(h)
	if err != nil {
		return nil, err
	}
	iface.SetMetrics(s.metrics)
	stats := make([]snapshot.FacetStat, len(res.Facets))
	for i, f := range res.Facets {
		stats[i] = snapshot.FacetStat{Term: f.Term, DF: f.DF, DFC: f.DFC, ShiftF: f.ShiftF, ShiftR: f.ShiftR, Score: f.Score}
	}
	title := fmt.Sprintf("%s archive — %d stories, %d facet terms", s.profile, sys.Len(), len(res.Facets))
	return &start{iface: iface, title: title, stats: stats}, nil
}

// save writes iface to the -snapshot file with stats (nil for a live
// epoch). The write is atomic (temp + rename), so a reader never sees a
// torn file. A failed save is logged and serving continues.
func (s *server) save(iface *browse.Interface, stats []snapshot.FacetStat) {
	snap := snapshot.Capture(iface, snapshot.Meta{
		Epoch: iface.Epoch(), Profile: s.profile, Seed: s.seed,
		CreatedUnixNano: time.Now().UnixNano(),
	}, stats)
	if err := snapshot.Save(s.snapshot, snap, s.metrics); err != nil {
		s.log.Printf("snapshot save (epoch %d): %v", iface.Epoch(), err)
	}
}

// validate is the warm start's background deep check: recompute every
// posting list from the snapshot's own annotations and compare. The
// outcome lands in snapshot.validate_ok / snapshot.validate_failures.
func (s *server) validate(snap *snapshot.Snapshot) {
	if err := snap.Verify(); err != nil {
		s.metrics.Counter("snapshot.validate_failures").Inc()
		s.log.Printf("snapshot %s FAILED background validation: %v (serving continues on the loaded state; rebuild without -snapshot to recover)", s.snapshot, err)
		return
	}
	s.metrics.Counter("snapshot.validate_ok").Inc()
	s.log.Printf("snapshot %s passed background validation", s.snapshot)
}
