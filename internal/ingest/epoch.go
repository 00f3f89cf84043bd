package ingest

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// runEpoch executes one incremental rebuild: snapshot the pipeline state
// under lock, start persisting the epoch's intake, re-run Step 3
// candidate selection over the incrementally maintained DF tables,
// assign documents, rebuild the hierarchy and a fresh browsing interface
// over the immutable corpus snapshot, and publish it with one atomic
// swap. Only the snapshot step holds the intake lock; extraction and
// intake continue while the rebuild runs, and the segment append runs
// beside it. ctx is checked between stages and passed to the hierarchy
// builder. A canceled or failed epoch publishes nothing; it still waits
// for its append, so no accepted document is lost, and its documents
// stay due for the next epoch. runEpoch is never called concurrently (it
// runs on the scheduler goroutine, or before Start / after scheduler
// shutdown).
func (ing *Ingester) runEpoch(ctx context.Context) error {
	start := time.Now()

	ing.mu.Lock()
	n := ing.corpus.Len()
	snap := ing.corpus.Snapshot()
	// Rows are only ever appended, so the epoch can keep reading these.
	corroborated := slices.Clip(ing.corroborated)
	dfD := ing.dfD.Clone()
	dfC := ing.dfC.Clone()
	ctxTerms := maps.Clone(ing.ctxTerms)
	newDocs := ing.pending
	ing.pending = nil
	epochDocs := ing.unpublished
	ing.unpublished = 0
	select {
	case <-ing.kick: // this epoch takes the documents it was sent for
	default:
	}
	ing.mu.Unlock()

	// Durability: each epoch's documents form one segment, and
	// Store.Append is crash-safe (segment fsync + atomic manifest
	// rename). The epoch is published only after its append succeeded,
	// so every served document is on disk.
	appended := make(chan error, 1)
	if ing.cfg.Store != nil && len(newDocs) > 0 {
		go func() { appended <- ing.cfg.Store.Append(newDocs) }()
	} else {
		appended <- nil
	}
	iface, terms, err := ing.rebuild(ctx, snap, corroborated, dfD, dfC, ctxTerms)
	if aerr := <-appended; aerr != nil {
		ing.mu.Lock()
		ing.pending = append(append([]*textdb.Document(nil), newDocs...), ing.pending...)
		ing.unpublished += epochDocs
		ing.mu.Unlock()
		return aerr
	}
	if ing.cfg.Store != nil && len(newDocs) > 0 {
		ing.persistedDocs.Add(int64(len(newDocs)))
		ing.persistedSegments.Add(1)
	}
	if err != nil {
		ing.mu.Lock()
		ing.unpublished += epochDocs
		ing.mu.Unlock()
		return err
	}

	// Stamp the interface with its epoch (distinct per rebuild, so query
	// cache keys from different hierarchy builds can never collide) and
	// attach the query-serving instrumentation before it becomes visible.
	iface.SetEpoch(uint64(ing.epochs.Load()) + 1)
	if ing.cfg.Metrics != nil {
		iface.SetMetrics(ing.cfg.Metrics)
	}

	elapsed := time.Since(start)
	ing.current.Store(iface)
	ing.publishedTerms.Store(&terms)
	ing.docsPublished.Store(int64(n))
	ing.facetTerms.Store(int64(len(terms)))
	ing.epochs.Add(1)
	ing.lastEpochDocs.Store(int64(epochDocs))
	ing.lastEpochMillis.Store(elapsed.Milliseconds())
	if ing.cfg.Metrics != nil {
		ing.cfg.Metrics.Histogram("ingest.epoch_duration").Observe(elapsed)
		ing.cfg.Metrics.Counter("ingest.epoch_published_docs").Add(int64(epochDocs))
	}
	if ing.cfg.OnPublish != nil {
		ing.cfg.OnPublish(iface)
	}
	return nil
}

// rebuild runs an epoch's stages over its snapshot: Step 3 over the
// delta-merged statistics, document assignment, the hierarchy and the
// browsing interface. Candidate scoring and the hierarchy sweep shard
// across the same worker pool that sizes intake (results are identical
// for any worker count, so live and batch builds still agree). It
// returns ctx's error, and no interface, once ctx is done.
func (ing *Ingester) rebuild(ctx context.Context, snap *textdb.Corpus, corroborated [][]textdb.TermID, dfD, dfC *textdb.DFTable, ctxTerms map[textdb.TermID]bool) (*browse.Interface, []string, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res := core.AnalyzeTables(snap.Dict(), dfD, dfC, ctxTerms, snap.Len(), ing.cfg.TopK, core.AnalyzeOptions{Workers: ing.cfg.Workers})
	terms := res.FacetTermStrings()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	docTerms := core.AssignDocTerms(snap, corroborated, terms)
	builderName := ing.cfg.HierarchyBuilder
	if builderName == "" {
		builderName = "subsumption"
	}
	builder, ok := hierarchy.Lookup(builderName)
	if !ok {
		return nil, nil, fmt.Errorf("ingest: unknown hierarchy builder %q", builderName)
	}
	forest, err := builder.Build(ctx, terms, docTerms, hierarchy.BuildConfig{
		Threshold: ing.cfg.SubsumptionThreshold,
		Workers:   ing.cfg.Workers,
		Metrics:   ing.cfg.Metrics, // hierarchy.pairs.* pruning counters per epoch; nil disables
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	iface, err := browse.Build(snap, forest, docTerms)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return iface, terms, nil
}

// Stats is a point-in-time snapshot of the subsystem's health, exposed
// over GET /api/ingest/stats.
type Stats struct {
	DocsIngested        int64   `json:"docs_ingested"`           // accepted into the pipeline (incl. bootstrap)
	DocsPublished       int64   `json:"docs_published"`          // visible in the served interface
	QueueDepth          int     `json:"queue_depth"`             // documents waiting in the intake queue
	Epochs              int64   `json:"epochs"`                  // completed rebuild epochs
	LastEpochDocs       int64   `json:"last_epoch_docs"`         // documents newly published by the last epoch
	LastEpochMillis     int64   `json:"last_epoch_millis"`       // wall-clock latency of the last epoch
	LastEpochDocsPerSec float64 `json:"last_epoch_docs_per_sec"` // publication throughput of the last epoch
	FacetTerms          int64   `json:"facet_terms"`             // facet terms in the served hierarchy
	CacheHits           int64   `json:"cache_hits"`              // resource-cache hits
	CacheMisses         int64   `json:"cache_misses"`            // resource-cache misses
	CacheHitRate        float64 `json:"cache_hit_rate"`          // hits / (hits + misses)
	CacheEntries        int     `json:"cache_entries"`           // live LRU entries
	PersistedDocs       int64   `json:"persisted_docs"`          // documents durable in the segment store
	PersistedSegments   int64   `json:"persisted_segments"`      // segments in the store
	DeadLetters         int     `json:"dead_letters"`            // documents awaiting retry in the DLQ
	DeadLetterDropped   int64   `json:"dead_letter_dropped"`     // DLQ entries evicted by the bound
	AnalysisFailures    int64   `json:"analysis_failures"`       // failed document analyses (incl. retries)
	FallbackLookups     int64   `json:"fallback_lookups"`        // term expansions rescued by Config.Fallback
}

// Stats returns a consistent snapshot of the counters.
func (ing *Ingester) Stats() Stats {
	hits, misses := ing.cache.Counters()
	s := Stats{
		DocsIngested:      ing.docsIngested.Load(),
		DocsPublished:     ing.docsPublished.Load(),
		QueueDepth:        len(ing.queue),
		Epochs:            ing.epochs.Load(),
		LastEpochDocs:     ing.lastEpochDocs.Load(),
		LastEpochMillis:   ing.lastEpochMillis.Load(),
		FacetTerms:        ing.facetTerms.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      ing.cache.Len(),
		PersistedDocs:     ing.persistedDocs.Load(),
		PersistedSegments: ing.persistedSegments.Load(),
		DeadLetterDropped: ing.dlqDropped.Load(),
		AnalysisFailures:  ing.analysisFailures.Load(),
		FallbackLookups:   ing.fallbackLookups.Load(),
	}
	ing.dlqMu.Lock()
	s.DeadLetters = len(ing.dlq)
	ing.dlqMu.Unlock()
	if total := hits + misses; total > 0 {
		s.CacheHitRate = float64(hits) / float64(total)
	}
	if s.LastEpochMillis > 0 {
		s.LastEpochDocsPerSec = float64(s.LastEpochDocs) / (float64(s.LastEpochMillis) / 1000)
	}
	return s
}
