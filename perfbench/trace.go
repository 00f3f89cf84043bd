package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// span is one timed call at a layer boundary. Spans of one pass or one
// request share ID. Parent is the index of the enclosing span in the
// tracer's slice, or -1 for a root. Key carries what a span is joined on
// when no parent is known at record time (the raw query of a shard
// sub-request, which the coordinator does not tag with a request id).
type span struct {
	ID     int64         `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Key    string        `json:"key,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends. It is safe for concurrent use. A disabled tracer records nothing,
// which is how one traced run also measures its own untraced baseline.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	// current is the span index wrapped extractors and resources attach
	// to as parent (-1: none). The batch replay sets it per stage; it
	// runs at Workers: 1, so there is one stage at a time.
	current atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.current.Store(-1)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open records a span whose end is filled in by close; used for spans
// that are parents of spans recorded while they run.
func (t *tracer) open(id int64, name string, parent int) int {
	return t.add(span{ID: id, Name: name, Start: t.now(), End: -1, Parent: parent})
}

func (t *tracer) close(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (the shard sub-requests of one coordinator request run in parallel),
// so the covered part is the union of the child intervals clipped to the
// parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// joinByContainment attaches each unparented span named child to the
// span named parent with the same Key (route and raw query, which the
// coordinator forwards verbatim) whose interval contains it; when
// several do, the latest-starting one wins (the innermost request). It
// returns how many child spans found no parent.
func joinByContainment(spans []span, parent, child string) int {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Name == parent {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	orphans := 0
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent >= 0 {
			continue
		}
		best := -1
		for _, p := range byKey[c.Key] {
			ps := spans[p]
			if ps.Start <= c.Start && c.End <= ps.End && (best < 0 || ps.Start > spans[best].Start) {
				best = p
			}
		}
		if best < 0 {
			orphans++
			continue
		}
		c.Parent = best
		c.ID = spans[best].ID
	}
	return orphans
}

// overheadShare is trace.overhead_share, defined the same way on every
// workload: a traced run alternates untraced and traced stretches of the
// same work, and the share is the process CPU time per operation while
// traced over the CPU time per operation while untraced, minus one. CPU
// time, unlike wall time, leaves out what the hypervisor of a shared
// host steals.
func overheadShare(tracedCPU time.Duration, tracedOps float64, plainCPU time.Duration, plainOps float64) float64 {
	plain := ratio(ms(plainCPU), plainOps)
	if plain == 0 {
		return 0
	}
	return ratio(ms(tracedCPU), tracedOps)/plain - 1
}

// --- wrappers for the interfaces the program accepts ---

// layerNames maps the built-in extractor and resource names to the
// layer names the per-layer metrics use.
var layerNames = map[string]string{
	"NE":                 "ner.extract",
	"Yahoo":              "yterms.extract",
	"Wikipedia":          "wiki.titles.extract",
	"Google":             "websearch.context",
	"WordNet Hypernyms":  "wordnet.context",
	"Wikipedia Synonyms": "wiki.synonyms.context",
	"Wikipedia Graph":    "wiki.graph.context",
}

// timedExtractor records a span around every Extract call.
type timedExtractor struct {
	core.Extractor
	tr   *tracer
	span string
}

func (e *timedExtractor) Extract(text string) []string {
	if !e.tr.enabled.Load() {
		return e.Extractor.Extract(text)
	}
	start := e.tr.now()
	out := e.Extractor.Extract(text)
	e.tr.add(span{Name: e.span, Start: start, End: e.tr.now(), Parent: int(e.tr.current.Load())})
	return out
}

// timedExtractorErr keeps the optional fallible method of an extractor
// that has one, so the program still upgrades it through
// core.AsExtractorErr.
type timedExtractorErr struct {
	*timedExtractor
	inner core.ExtractorErr
}

func (e timedExtractorErr) ExtractErr(ctx context.Context, text string) ([]string, error) {
	if !e.tr.enabled.Load() {
		return e.inner.ExtractErr(ctx, text)
	}
	start := e.tr.now()
	out, err := e.inner.ExtractErr(ctx, text)
	e.tr.add(span{Name: e.span, Start: start, End: e.tr.now(), Parent: int(e.tr.current.Load())})
	return out, err
}

// timedResource records a span around every Context call.
type timedResource struct {
	core.Resource
	tr   *tracer
	span string
}

func (r *timedResource) Context(term string) []string {
	if !r.tr.enabled.Load() {
		return r.Resource.Context(term)
	}
	start := r.tr.now()
	out := r.Resource.Context(term)
	r.tr.add(span{Name: r.span, Start: start, End: r.tr.now(), Parent: int(r.tr.current.Load())})
	return out
}

// timedResourceErr keeps the optional fallible method of a resource.
type timedResourceErr struct {
	*timedResource
	inner core.ResourceErr
}

func (r timedResourceErr) ContextErr(ctx context.Context, term string) ([]string, error) {
	if !r.tr.enabled.Load() {
		return r.inner.ContextErr(ctx, term)
	}
	start := r.tr.now()
	out, err := r.inner.ContextErr(ctx, term)
	r.tr.add(span{Name: r.span, Start: start, End: r.tr.now(), Parent: int(r.tr.current.Load())})
	return out, err
}

func layerName(name string) string {
	if l, ok := layerNames[name]; ok {
		return l
	}
	return "extra." + name
}

func wrapExtractors(tr *tracer, exs []core.Extractor) []core.Extractor {
	out := make([]core.Extractor, len(exs))
	for i, e := range exs {
		w := &timedExtractor{Extractor: e, tr: tr, span: layerName(e.Name())}
		if fe, ok := e.(core.ExtractorErr); ok {
			out[i] = timedExtractorErr{w, fe}
		} else {
			out[i] = w
		}
	}
	return out
}

func wrapResources(tr *tracer, rs []core.Resource) []core.Resource {
	out := make([]core.Resource, len(rs))
	for i, r := range rs {
		w := &timedResource{Resource: r, tr: tr, span: layerName(r.Name())}
		if fr, ok := r.(core.ResourceErr); ok {
			out[i] = timedResourceErr{w, fr}
		} else {
			out[i] = w
		}
	}
	return out
}

// reqIDHeader carries the load generator's request id to the handler
// wrappers of the server it calls directly.
const reqIDHeader = "X-Bench-Request"

// handler wraps an http.Handler with a span named name. The request id
// comes from reqIDHeader when the caller set one; the raw query is kept
// as the join key for requests that arrive without one.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		var id int64
		fmt.Sscan(r.Header.Get(reqIDHeader), &id)
		route := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/api/v1/"), "cluster/")
		t.add(span{ID: id, Name: name, Start: start, End: t.now(), Parent: -1, Key: route + "?" + r.URL.RawQuery})
	})
}
