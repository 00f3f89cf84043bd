package main

import (
	"fmt"
	"math"
)

// metricDef is one reported metric: its name, unit and which direction
// is better. The lists below are the single source of the names and
// units that BENCHMARK.json declares; TestBenchmarkJSONMatches keeps the
// two equal.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
// Each is defined for all four workloads so every run reports all of
// them; README.md gives the per-workload reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"fresh_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not run reports 0. Times are self times unless the name says
// otherwise: a batch layer's "_ms" is milliseconds per pass, a read
// layer's "_us"/"_ms" is the mean per call or request.
var perLayer = []metricDef{
	// Extractors and core Step 1 (batch_extract, per pass).
	{"ner.extract_ms", "ms", "lower"},
	{"yterms.extract_ms", "ms", "lower"},
	{"wiki.titles.extract_ms", "ms", "lower"},
	{"core.identify_important_ms", "ms", "lower"},
	// Resources, core Step 2 and the ResourceCache (batch_extract).
	{"websearch.context_ms", "ms", "lower"},
	{"wordnet.context_ms", "ms", "lower"},
	{"wiki.synonyms.context_ms", "ms", "lower"},
	{"wiki.graph.context_ms", "ms", "lower"},
	{"core.resource.calls", "count", "lower"},
	{"core.resource_cache.hit_rate", "ratio", "higher"},
	{"core.derive_context_ms", "ms", "lower"},
	// Core Step 3.
	{"core.analyze_ms", "ms", "lower"},
	{"core.candidates", "count", "higher"},
	// Facade document assignment: its own time, and the resource
	// lookups it repeats after Step 2.
	{"facet.assign_doc_terms_ms", "ms", "lower"},
	{"facet.assign_doc_terms.resource_calls", "count", "lower"},
	{"facet.assign_doc_terms.resource_ms", "ms", "lower"},
	// Pass stages outside the three steps.
	{"textdb.index_ms", "ms", "lower"},
	{"facet.setup_ms", "ms", "lower"},
	{"hierarchy.build_ms", "ms", "lower"},
	{"hierarchy.pairs.evaluated", "count", "lower"},
	{"hierarchy.pairs.skipped", "count", "higher"},
	{"browse.build_ms", "ms", "lower"},
	// Browse queries, replayed against browse.Interface (read workloads
	// and the live read mix), mean per call.
	{"browse.children_us", "us", "lower"},
	{"browse.match_count_us", "us", "lower"},
	{"browse.docs_us", "us", "lower"},
	{"browse.date_histogram_us", "us", "lower"},
	{"browse.cross_us", "us", "lower"},
	{"browse.search_us", "us", "lower"},
	{"browse.query_cache.hit_rate", "ratio", "higher"},
	// HTTP serving and admission control, mean per request.
	{"serve.facets_ms", "ms", "lower"},
	{"serve.docs_ms", "ms", "lower"},
	{"serve.dates_ms", "ms", "lower"},
	{"serve.cross_ms", "ms", "lower"},
	{"serve.ingest_ms", "ms", "lower"},
	{"serve.resp_kb", "KB", "lower"},
	{"http.loopback_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.requests", "count", "higher"},
	{"overload.read.queue_wait_ms", "ms", "lower"},
	{"overload.read.shed", "count", "lower"},
	// Scatter-gather (fanout_read), mean per request.
	{"cluster.coordinator_ms", "ms", "lower"},
	{"cluster.shard_ms", "ms", "lower"},
	{"cluster.merge_self_ms", "ms", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.shard_errors", "count", "lower"},
	{"cluster.shard_conns", "count", "lower"},
	// Live ingestion (live_ingest).
	{"ingest.analyze_ms_per_doc", "ms", "lower"},
	{"ingest.cache.hit_rate", "ratio", "higher"},
	{"ingest.epoch_ms", "ms", "lower"},
	{"ingest.docs_per_epoch", "count", "lower"},
	{"ingest.epochs", "count", "higher"},
	{"ingest.queue_depth_max", "count", "lower"},
	{"ingest.dead_letters", "count", "lower"},
	{"ingest.fresh_tail_ms", "ms", "lower"},
	{"ingest.fresh_tail_pct", "pct", "higher"},
	{"ingest.read_p99_ms", "ms", "lower"},
	{"textdb.segment_append_ms", "ms", "lower"},
	{"snapshot.save_ms", "ms", "lower"},
	{"snapshot.kb", "KB", "lower"},
	// Worker scaling, traced batch_extract only.
	{"parallel.speedup_w2", "ratio", "higher"},
	// Go runtime.
	{"runtime.alloc_mb_per_pass", "MB", "lower"},
	{"runtime.gc_cycles_per_pass", "count", "lower"},
	{"runtime.alloc_kb_per_req", "KB", "lower"},
	// Harness validity.
	{"gen.late_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.unaccounted_share", "ratio", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line. An untraced run must have measured
// every end-to-end metric with a positive finite value; a traced run
// reports every per-layer metric, 0 for layers the workload skips.
func result(o *outcome, traced bool) (runResult, error) {
	r := runResult{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if r.Attempted < 1 {
		return r, fmt.Errorf("no operation attempted")
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !traced && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return r, fmt.Errorf("metric %s not measured (got %v)", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}
