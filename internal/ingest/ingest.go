// Package ingest is the live ingestion subsystem: it accepts documents at
// runtime, runs them through the paper's Fig. 1–3 pipeline incrementally,
// and republishes the faceted browsing interface without downtime.
//
// The batch pipeline (internal/core driven by the facet facade) processes
// a frozen corpus once; a deployed news archive instead grows
// continuously, and its facet hierarchy must follow. The subsystem is
// organized as three cooperating pieces:
//
//  1. Intake: a bounded queue feeds a worker pool that shards
//     per-document important-term extraction (Fig. 1) and context
//     expansion (Fig. 2) across GOMAXPROCS workers. Context lookups go
//     through a bounded LRU cache, so the recurring entities of a news
//     stream skip re-expansion — the streaming analogue of the paper's
//     Section V-D precomputation. Each accepted document's term sets and
//     document-frequency deltas are merged into incrementally maintained
//     DF tables for the original and contextualized databases.
//  2. Epoch rebuild: when enough documents accumulate (EpochDocs) or the
//     served interface grows stale (MaxStaleness), the scheduler re-runs
//     candidate selection (Shift_f, Shift_r, −log λ via
//     core.AnalyzeTables) over the incremental tables, rebuilds the
//     subsumption hierarchy, and assembles a fresh browse.Interface over
//     an immutable corpus snapshot. The heavy work runs off-lock; intake
//     continues during a rebuild. What the last epoch built is reused:
//     each document's corroborated context terms are kept as term IDs
//     from admission, and the corpus extends its keyword index with the
//     new documents only.
//  3. Publication: the rebuilt interface is swapped atomically
//     (atomic.Pointer); readers always see a complete, internally
//     consistent epoch — never a torn mix of old and new state. Each
//     epoch's documents are durably persisted through textdb.Store.Append
//     while it rebuilds, and the epoch is published only once they are,
//     so a restarted server warm-starts from disk with every document it
//     served.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/textdb"
)

// Sentinel errors returned by Submit.
var (
	ErrClosed    = errors.New("ingest: ingester closed")
	ErrQueueFull = errors.New("ingest: intake queue full")
)

// Config assembles an Ingester. Extractors and Resources must be safe for
// concurrent use (the built-in substrates are read-only after
// construction; core.IdentifyImportantReport already shards them the same way).
type Config struct {
	Extractors []core.Extractor
	Resources  []core.Resource

	// Fallback, when set, is a last-resort context resource (normally the
	// corpus-only distributional model, facet.CoreFallback) consulted for
	// an important term only when EVERY configured resource failed its
	// lookup. Without it, any resource failure dead-letters the document
	// (never half-ingest); with it, a document caught in a TOTAL resource
	// outage is admitted with distributional context instead — complete
	// under the degraded-mode definition — while a partial outage still
	// dead-letters (a partial expansion would skew the DF tables).
	Fallback core.Resource

	// TopK bounds the number of facet terms per rebuild (0 = 200, the
	// paper's working value).
	TopK int
	// SubsumptionThreshold is θ for hierarchy construction, in [0,1]
	// (0 = 0.8).
	SubsumptionThreshold float64
	// HierarchyBuilder selects the hierarchy strategy by registry name
	// (hierarchy.Names); "" = "subsumption". Taxonomy-backed builders
	// ("evidence", "treemin") run without external sources here — the
	// live pipeline has no environment wiring — so co-occurrence
	// builders ("subsumption", "agglomerative") are the useful choices.
	HierarchyBuilder string
	// MaxImportantPerDoc caps important terms per document (0 = no cap).
	MaxImportantPerDoc int

	// Workers sizes the intake pool (0 = GOMAXPROCS).
	Workers int
	// QueueSize bounds the intake queue (0 = 1024). A full queue pushes
	// back on producers: Submit fails fast, SubmitContext blocks until
	// space frees up or its ctx is done.
	QueueSize int

	// EpochDocs triggers a rebuild epoch once this many documents have
	// accumulated since the last publication (0 = 64).
	EpochDocs int
	// MaxStaleness additionally triggers a rebuild whenever unpublished
	// documents have been waiting this long (0 = disabled).
	MaxStaleness time.Duration

	// CacheSize bounds the resource LRU cache in entries (0 = 4096).
	CacheSize int

	// DeadLetterSize bounds the dead-letter queue holding documents whose
	// analysis failed permanently — an extractor or resource (after the
	// resilience layer's retries) returned an error (0 = 256). When full,
	// the oldest entry is dropped and counted. Dead-lettered documents are
	// NOT ingested; RetryDeadLetters re-analyzes them, so a recovered
	// dependency lets them in with complete term sets rather than
	// admitting partial analyses.
	DeadLetterSize int

	// Store, when set, durably persists accepted documents: one segment
	// per epoch via Store.Append. The ingester is then warm-startable
	// from disk (Bootstrap with Store.LoadAll's documents).
	Store *textdb.Store

	// OnPublish, when set, is invoked with every newly published
	// interface (after the internal swap); the HTTP server registers its
	// own atomic swap here.
	OnPublish func(*browse.Interface)

	// Metrics, when set, receives the subsystem's gauges (queue depth,
	// cache hit/miss, docs ingested/published) and epoch timing
	// histograms. The HTTP server additionally registers the same gauges
	// via RegisterMetrics when it enables ingestion.
	Metrics *obsv.Registry

	// Logf, when set, receives diagnostic messages (epoch failures).
	Logf func(format string, args ...any)
}

// Ingester is a running live-ingestion pipeline.
type Ingester struct {
	cfg   Config
	cache *lruCache
	queue chan *textdb.Document

	// Fallible views of the configured dependencies, precomputed once so
	// the per-document hot path skips the interface-upgrade assertions.
	extractors []core.ExtractorErr
	resources  []core.ResourceErr
	fallback   core.ResourceErr // nil unless Config.Fallback set

	// Dead-letter queue: documents whose analysis failed permanently.
	dlqMu      sync.Mutex
	dlq        []DeadLetterDoc
	dlqDropped atomic.Int64

	current        atomic.Pointer[browse.Interface]
	publishedTerms atomic.Pointer[[]string]

	// mu guards the incremental pipeline state: the growing corpus, the
	// per-document extraction results, and the DF delta tables. Workers
	// do extraction and expansion lock-free and only merge under mu.
	mu     sync.Mutex
	corpus *textdb.Corpus
	// corroborated[d]: doc d's corroborated context terms, the vote rule
	// of document assignment applied at admission (core.CorroboratedTerms)
	corroborated [][]textdb.TermID
	dfD          *textdb.DFTable // document frequencies over D
	dfC          *textdb.DFTable // document frequencies over C(D)
	ctxTerms     map[textdb.TermID]bool
	pending      []*textdb.Document // accepted but not yet persisted
	unpublished  int                // accepted but not yet in the served interface
	// Reusable expansion state for admit (guarded by mu like the tables
	// it feeds): documents arrive one at a time under the lock, so one
	// scratch map and one row buffer serve every admission allocation-free
	// at steady state.
	expandScratch map[textdb.TermID]bool
	expandBuf     []textdb.TermID

	// Lifecycle. submitMu serializes Submit against Close so the queue is
	// never written after it is closed.
	submitMu sync.RWMutex
	closed   bool
	started  bool
	kick     chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup // intake workers
	schedWG  sync.WaitGroup // epoch scheduler
	// schedCtx is the scheduler's epochs' context; Close cancels it once
	// its own ctx is done, interrupting an in-flight rebuild.
	schedCtx    context.Context
	cancelSched context.CancelFunc

	// Monotonic counters, readable without mu.
	docsIngested      atomic.Int64
	docsPublished     atomic.Int64
	epochs            atomic.Int64
	lastEpochDocs     atomic.Int64
	lastEpochMillis   atomic.Int64
	facetTerms        atomic.Int64
	persistedDocs     atomic.Int64
	persistedSegments atomic.Int64
	analysisFailures  atomic.Int64
	queueRejections   atomic.Int64
	fallbackLookups   atomic.Int64
}

// New validates the configuration and returns an idle ingester. Call
// Bootstrap to seed and publish the first epoch, then Start to launch the
// intake workers and the epoch scheduler.
func New(cfg Config) (*Ingester, error) {
	if len(cfg.Extractors) == 0 {
		return nil, fmt.Errorf("ingest: no extractors configured")
	}
	if len(cfg.Resources) == 0 {
		return nil, fmt.Errorf("ingest: no resources configured")
	}
	if th := cfg.SubsumptionThreshold; math.IsNaN(th) || th < 0 || th > 1 {
		return nil, fmt.Errorf("ingest: SubsumptionThreshold %v outside [0,1]", th)
	}
	if cfg.HierarchyBuilder != "" {
		if _, ok := hierarchy.Lookup(cfg.HierarchyBuilder); !ok {
			return nil, fmt.Errorf("ingest: unknown hierarchy builder %q", cfg.HierarchyBuilder)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.EpochDocs <= 0 {
		cfg.EpochDocs = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.DeadLetterSize <= 0 {
		cfg.DeadLetterSize = 256
	}
	corpus := textdb.NewCorpus()
	schedCtx, cancelSched := context.WithCancel(context.Background())
	ing := &Ingester{
		cfg:           cfg,
		cache:         newLRUCache(cfg.CacheSize),
		queue:         make(chan *textdb.Document, cfg.QueueSize),
		corpus:        corpus,
		dfD:           textdb.NewDFTable(corpus.Dict()),
		dfC:           textdb.NewDFTable(corpus.Dict()),
		ctxTerms:      map[textdb.TermID]bool{},
		expandScratch: map[textdb.TermID]bool{},
		kick:          make(chan struct{}, 1),
		stop:          make(chan struct{}),
		schedCtx:      schedCtx,
		cancelSched:   cancelSched,
	}
	ing.extractors = make([]core.ExtractorErr, len(cfg.Extractors))
	for i, ex := range cfg.Extractors {
		ing.extractors[i] = core.AsExtractorErr(ex)
	}
	ing.resources = make([]core.ResourceErr, len(cfg.Resources))
	for i, r := range cfg.Resources {
		ing.resources[i] = core.AsResourceErr(r)
	}
	if cfg.Fallback != nil {
		ing.fallback = core.AsResourceErr(cfg.Fallback)
	}
	if cfg.Store != nil {
		ing.persistedDocs.Store(int64(cfg.Store.Docs()))
		ing.persistedSegments.Store(int64(cfg.Store.Segments()))
	}
	if cfg.Metrics != nil {
		ing.RegisterMetrics(cfg.Metrics)
	}
	return ing, nil
}

// RegisterMetrics exposes the subsystem's live state through reg as
// ingest.* gauges. Registering the same ingester twice (or into two
// registries) is harmless — gauges read the authoritative atomic
// counters at snapshot time. When no registry was configured at
// construction, reg also becomes the sink for epoch timing histograms;
// like EnableIngest, this must happen before traffic starts.
func (ing *Ingester) RegisterMetrics(reg *obsv.Registry) {
	if ing.cfg.Metrics == nil {
		ing.cfg.Metrics = reg
	}
	reg.GaugeFunc("ingest.queue_depth", func() int64 { return int64(len(ing.queue)) })
	reg.GaugeFunc("ingest.docs_ingested", ing.docsIngested.Load)
	reg.GaugeFunc("ingest.docs_published", ing.docsPublished.Load)
	reg.GaugeFunc("ingest.epochs", ing.epochs.Load)
	reg.GaugeFunc("ingest.last_epoch_docs", ing.lastEpochDocs.Load)
	reg.GaugeFunc("ingest.last_epoch_millis", ing.lastEpochMillis.Load)
	reg.GaugeFunc("ingest.facet_terms", ing.facetTerms.Load)
	reg.GaugeFunc("ingest.cache_hits", func() int64 { h, _ := ing.cache.Counters(); return h })
	reg.GaugeFunc("ingest.cache_misses", func() int64 { _, m := ing.cache.Counters(); return m })
	reg.GaugeFunc("ingest.cache_entries", func() int64 { return int64(ing.cache.Len()) })
	reg.GaugeFunc("ingest.persisted_docs", ing.persistedDocs.Load)
	reg.GaugeFunc("ingest.persisted_segments", ing.persistedSegments.Load)
	reg.GaugeFunc("ingest.dead_letters", func() int64 {
		ing.dlqMu.Lock()
		defer ing.dlqMu.Unlock()
		return int64(len(ing.dlq))
	})
	reg.GaugeFunc("ingest.dead_letter_dropped", ing.dlqDropped.Load)
	reg.GaugeFunc("ingest.analysis_failures", ing.analysisFailures.Load)
	reg.GaugeFunc("ingest.queue_rejections", ing.queueRejections.Load)
	reg.GaugeFunc("ingest.fallback_lookups", ing.fallbackLookups.Load)
}

// analysis is the lock-free part of processing one document.
type analysis struct {
	important []string
	ctx       []string
	votes     map[string]int
}

// analyze runs Fig. 1 (core.ImportantTerms) and Fig. 2
// (core.ContextTerms, through the LRU cache) for one document. No locks
// are held; this is the CPU-bound work the worker pool shards.
//
// Any dependency failure the fallback cannot rescue — an extractor, or a
// resource lookup that the resilience layer gave up on — fails the whole
// analysis at once: a document is either ingested with its complete term
// sets or dead-lettered and retried later, never half-expanded (a
// partial expansion would silently skew the DF tables against the
// paper's Fig. 2 semantics).
func (ing *Ingester) analyze(ctx context.Context, doc *textdb.Document) (analysis, error) {
	important, err := core.ImportantTerms(ctx, doc.Title+". "+doc.Text, ing.extractors, ing.cfg.MaxImportantPerDoc, func(name string, err error) error {
		return fmt.Errorf("extractor %s: %w", name, err)
	})
	if err != nil {
		return analysis{}, err
	}
	terms, votes, rescued, err := core.ContextTerms(ctx, important, ing.resources, ing.fallback, ing.cache.LookupErr, func(err *core.LookupError) error {
		return err
	})
	// Terms the fallback answered count even when a later term
	// dead-letters the document: the lookups were made.
	ing.fallbackLookups.Add(int64(rescued))
	if err != nil {
		return analysis{}, err
	}
	return analysis{important: important, ctx: terms, votes: votes}, nil
}

// process analyzes one document and either admits it into the pipeline
// or routes it to the dead-letter queue. persist marks the document for
// durable Append at the next epoch.
func (ing *Ingester) process(doc *textdb.Document, persist bool, attempts int) {
	a, err := ing.analyze(context.Background(), doc)
	if err != nil {
		ing.deadLetter(doc, attempts+1, err)
		return
	}
	ing.admit(doc, a, persist)
}

// DeadLetterDoc is one permanently-failed document awaiting retry.
type DeadLetterDoc struct {
	// Doc is the rejected document, untouched — a retry re-runs the full
	// analysis.
	Doc *textdb.Document `json:"doc"`
	// Attempts counts failed analysis attempts (initial + retries).
	Attempts int `json:"attempts"`
	// Err is the text of the last analysis error.
	Err string `json:"err"`
}

// deadLetter appends one failed document to the bounded dead-letter
// queue, dropping (and counting) the oldest entry when full.
func (ing *Ingester) deadLetter(doc *textdb.Document, attempts int, err error) {
	ing.analysisFailures.Add(1)
	if ing.cfg.Logf != nil {
		ing.cfg.Logf("ingest: dead-lettering document %q (attempt %d): %v", doc.Title, attempts, err)
	}
	ing.dlqMu.Lock()
	defer ing.dlqMu.Unlock()
	ing.dlq = append(ing.dlq, DeadLetterDoc{Doc: doc, Attempts: attempts, Err: err.Error()})
	if over := len(ing.dlq) - ing.cfg.DeadLetterSize; over > 0 {
		ing.dlq = append([]DeadLetterDoc(nil), ing.dlq[over:]...)
		ing.dlqDropped.Add(int64(over))
	}
}

// DeadLetters returns a snapshot of the dead-letter queue, oldest first.
func (ing *Ingester) DeadLetters() []DeadLetterDoc {
	ing.dlqMu.Lock()
	defer ing.dlqMu.Unlock()
	return append([]DeadLetterDoc(nil), ing.dlq...)
}

// RetryDeadLetters drains the dead-letter queue and re-analyzes every
// document synchronously: recovered dependencies let documents in with
// complete term sets; documents that fail again return to the queue with
// their attempt counts bumped. It returns how many documents were
// admitted. Safe to call while intake is running; returns ErrClosed
// after Close.
func (ing *Ingester) RetryDeadLetters(ctx context.Context) (int, error) {
	ing.submitMu.RLock()
	closed := ing.closed
	ing.submitMu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	ing.dlqMu.Lock()
	batch := ing.dlq
	ing.dlq = nil
	ing.dlqMu.Unlock()

	admitted := 0
	for i, dl := range batch {
		if err := ctx.Err(); err != nil {
			// Put the unprocessed tail back, preserving order.
			for _, rest := range batch[i:] {
				ing.requeueDeadLetter(rest)
			}
			return admitted, err
		}
		a, err := ing.analyze(ctx, dl.Doc)
		if err != nil {
			ing.deadLetter(dl.Doc, dl.Attempts+1, err)
			continue
		}
		ing.admit(dl.Doc, a, true)
		admitted++
	}
	return admitted, nil
}

// requeueDeadLetter restores an entry untouched (no failure counted).
func (ing *Ingester) requeueDeadLetter(dl DeadLetterDoc) {
	ing.dlqMu.Lock()
	defer ing.dlqMu.Unlock()
	ing.dlq = append(ing.dlq, dl)
	if over := len(ing.dlq) - ing.cfg.DeadLetterSize; over > 0 {
		ing.dlq = append([]DeadLetterDoc(nil), ing.dlq[over:]...)
		ing.dlqDropped.Add(int64(over))
	}
}

// admit merges one analyzed document into the incremental pipeline state:
// the corpus, the Fig. 1/2 result rows, and the DF delta tables for D and
// C(D). persist marks the document for durable Append at the next epoch
// (false for documents replayed from the store at warm-start).
func (ing *Ingester) admit(doc *textdb.Document, a analysis, persist bool) {
	ing.mu.Lock()
	id := ing.corpus.Add(doc)
	orig := ing.corpus.DocTerms(id)
	ing.dfD.AddDoc(orig)
	ing.expandBuf = core.ExpandDocTermsAppend(ing.expandBuf[:0], ing.corpus.Dict(), orig, a.ctx, ing.expandScratch, ing.ctxTerms)
	ing.dfC.AddDoc(ing.expandBuf)
	// The expansion interned every context term, so this looks them up.
	ing.corroborated = append(ing.corroborated, core.CorroboratedTerms(ing.corpus.Dict(), a.important, a.votes))
	if persist && ing.cfg.Store != nil {
		ing.pending = append(ing.pending, doc)
	}
	ing.unpublished++
	ing.docsIngested.Add(1)
	if ing.unpublished >= ing.cfg.EpochDocs {
		// Kicked under mu, where the epoch that takes these documents
		// drains the kick, so no stale kick outlives it.
		select {
		case ing.kick <- struct{}{}:
		default:
		}
	}
	ing.mu.Unlock()
}

// Bootstrap seeds the ingester with an initial document set — sharding
// the Fig. 1/2 analysis across the worker count — and synchronously runs
// the first epoch so Current returns a complete interface before any
// traffic is served. With persist set (and a Store configured) the
// documents are durably appended as the first segment; pass persist=false
// when replaying documents already loaded from the store. Bootstrap must
// be called before Start.
func (ing *Ingester) Bootstrap(docs []*textdb.Document, persist bool) error {
	if ing.started {
		return fmt.Errorf("ingest: bootstrap after start")
	}
	analyses := make([]analysis, len(docs))
	errs := make([]error, len(docs))
	parallel.For(context.Background(), len(docs), ing.cfg.Workers, func(_, i int) {
		analyses[i], errs[i] = ing.analyze(context.Background(), docs[i])
	})
	// Sequential admission keeps document IDs aligned with input order
	// (and with segment order on the warm-start path). Documents whose
	// analysis failed are dead-lettered, not admitted; RetryDeadLetters
	// brings them in once their dependency recovers.
	for i, doc := range docs {
		if errs[i] != nil {
			ing.deadLetter(doc, 1, errs[i])
			continue
		}
		ing.admit(doc, analyses[i], persist)
	}
	return ing.runEpoch(context.Background())
}

// SetOnPublish installs the publication hook after construction — the
// usual wiring order builds the Ingester (and bootstraps it) before the
// HTTP server that consumes its swaps exists. It must be called before
// Start; the hook then fires on every subsequent epoch.
func (ing *Ingester) SetOnPublish(fn func(*browse.Interface)) {
	ing.cfg.OnPublish = fn
}

// Start launches the intake worker pool and the epoch scheduler.
func (ing *Ingester) Start() {
	if ing.started {
		return
	}
	ing.started = true
	for w := 0; w < ing.cfg.Workers; w++ {
		ing.wg.Add(1)
		go func() {
			defer ing.wg.Done()
			for doc := range ing.queue {
				ing.process(doc, true, 0)
			}
		}()
	}
	ing.schedWG.Add(1)
	go ing.schedule()
}

func (ing *Ingester) schedule() {
	defer ing.schedWG.Done()
	var tick <-chan time.Time
	if ing.cfg.MaxStaleness > 0 {
		t := time.NewTicker(ing.cfg.MaxStaleness)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ing.stop:
			return
		case <-ing.kick:
		case <-tick:
		}
		ing.mu.Lock()
		due := ing.unpublished
		ing.mu.Unlock()
		if due == 0 {
			continue
		}
		if err := ing.runEpoch(ing.schedCtx); err != nil && ing.cfg.Logf != nil {
			ing.cfg.Logf("ingest: epoch rebuild failed: %v", err)
		}
	}
}

// Submit enqueues one document without blocking; it fails fast with
// ErrQueueFull when the bounded intake queue is saturated (backpressure)
// and ErrClosed after Close.
func (ing *Ingester) Submit(doc *textdb.Document) error {
	ing.submitMu.RLock()
	defer ing.submitMu.RUnlock()
	if ing.closed {
		return ErrClosed
	}
	select {
	case ing.queue <- doc:
		return nil
	default:
		ing.queueRejections.Add(1)
		return ErrQueueFull
	}
}

// SubmitContext enqueues one document, blocking while the queue is full
// until space frees up or ctx is done — the natural backpressure mode for
// an HTTP intake handler. Submit is the context-free fast-fail variant.
func (ing *Ingester) SubmitContext(ctx context.Context, doc *textdb.Document) error {
	ing.submitMu.RLock()
	defer ing.submitMu.RUnlock()
	if ing.closed {
		return ErrClosed
	}
	select {
	case ing.queue <- doc:
		return nil
	case <-ctx.Done():
		// The caller's budget expired while the queue was saturated —
		// the same backpressure signal as a fail-fast rejection.
		ing.queueRejections.Add(1)
		return ctx.Err()
	}
}

// Current returns the most recently published browsing interface. The
// pointer swap is atomic: every caller sees a complete epoch.
func (ing *Ingester) Current() *browse.Interface {
	return ing.current.Load()
}

// FacetTerms returns the facet terms selected by the served epoch, most
// significant first (the Step-3 ranking before hierarchy assembly, which
// may prune terms with too little document support).
func (ing *Ingester) FacetTerms() []string {
	if p := ing.publishedTerms.Load(); p != nil {
		return *p
	}
	return nil
}

// Close gracefully drains the subsystem: it stops accepting documents,
// waits for the workers to finish every queued document, stops the
// scheduler, and runs one final epoch so all accepted intake is both
// published and durably persisted before exit. The final epoch runs
// under ctx, and once ctx is done the scheduler's in-flight epoch is
// canceled too. A canceled epoch publishes nothing but still persists
// its documents, so no accepted intake is lost; Close then returns ctx's
// error.
func (ing *Ingester) Close(ctx context.Context) error {
	ing.submitMu.Lock()
	if ing.closed {
		ing.submitMu.Unlock()
		return nil
	}
	ing.closed = true
	if ing.started {
		close(ing.queue)
	}
	ing.submitMu.Unlock()

	defer ing.cancelSched()
	stopCancel := context.AfterFunc(ctx, ing.cancelSched)
	defer stopCancel()
	ing.wg.Wait() // drain queued documents
	close(ing.stop)
	ing.schedWG.Wait()

	ing.mu.Lock()
	due := ing.unpublished > 0 || len(ing.pending) > 0
	ing.mu.Unlock()
	if !due {
		return nil
	}
	return ing.runEpoch(ctx)
}
