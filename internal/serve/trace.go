package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cppcache/internal/obs"
	"cppcache/internal/span"
)

// stageTopBucket is the highest obs.Histogram bucket the
// cppserved_stage_seconds family lists with a finite le bound: 2^25 us,
// about 33.6 s. Simulation stages on default scales land well below it;
// stalled or deadline-bound runs fall through to +Inf.
const stageTopBucket = 25

// stageTimes is one stage's durations: an obs.Histogram over whole
// microseconds, the bucketing the /fleet stage rollups use, next to the
// exact sum of the observed seconds.
type stageTimes struct {
	us  obs.Histogram
	sum float64
}

// stageSet aggregates span durations per stage name, fed from the span
// tracer's OnEnd hook and rendered on /metrics as the
// cppserved_stage_seconds histogram family. Stage names come from the
// fixed instrumentation vocabulary (run, admission, queue, execute,
// workload.build, sim.*, sse.stream), so cardinality is bounded by
// construction.
type stageSet struct {
	mu    sync.Mutex
	hists map[string]*stageTimes
}

// observe records one completed span. Matches span.Tracer.SetOnEnd.
func (s *stageSet) observe(stage string, seconds float64) {
	s.mu.Lock()
	if s.hists == nil {
		s.hists = map[string]*stageTimes{}
	}
	h := s.hists[stage]
	if h == nil {
		h = &stageTimes{}
		s.hists[stage] = h
	}
	h.us.Observe(int64(seconds * 1e6))
	h.sum += seconds
	s.mu.Unlock()
}

// SpanSeconds returns the observed total seconds and span count for one
// stage (zero when the stage never completed a span). The conservation
// tests reconcile these sums against the span tree itself.
func (s *stageSet) SpanSeconds(stage string) (sum float64, count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.hists[stage]; h != nil {
		return h.sum, h.us.Count
	}
	return 0, 0
}

// writeProm renders the family in Prometheus text exposition 0.0.4, with
// cumulative le buckets, stages in sorted order for deterministic output.
// Bucket i holds whole-microsecond durations up to its inclusive upper
// bound hi, so every duration it counts is below hi+1 us, the le bound it
// is listed under; buckets 0..stageTopBucket are listed on every scrape.
func (s *stageSet) writeProm(w *strings.Builder) {
	s.mu.Lock()
	names := make([]string, 0, len(s.hists))
	for name := range s.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP cppserved_stage_seconds Wall-clock seconds per run-lifecycle stage, from the span tracer.\n")
	fmt.Fprintf(w, "# TYPE cppserved_stage_seconds histogram\n")
	for _, name := range names {
		h := s.hists[name]
		stage := escapeLabel(name)
		bks := h.us.Buckets()
		var cum int64
		for i := 0; i <= stageTopBucket; i++ {
			_, hi := obs.BucketBounds(i)
			for len(bks) > 0 && bks[0].Hi <= hi {
				cum += bks[0].Count
				bks = bks[1:]
			}
			fmt.Fprintf(w, "cppserved_stage_seconds_bucket{stage=\"%s\",le=\"%g\"} %d\n", stage, float64(hi+1)/1e6, cum)
		}
		fmt.Fprintf(w, "cppserved_stage_seconds_bucket{stage=\"%s\",le=\"+Inf\"} %d\n", stage, h.us.Count)
		fmt.Fprintf(w, "cppserved_stage_seconds_sum{stage=\"%s\"} %v\n", stage, h.sum)
		fmt.Fprintf(w, "cppserved_stage_seconds_count{stage=\"%s\"} %d\n", stage, h.us.Count)
	}
	s.mu.Unlock()
}

// StageSeconds exposes the registry's per-stage totals (see
// stageSet.SpanSeconds); tests use it to prove the histogram family and
// the span tree agree.
func (g *Registry) StageSeconds(stage string) (sum float64, count int64) {
	return g.stages.SpanSeconds(stage)
}

// TraceID returns the run's trace identifier, shared by its status JSON,
// its log lines and every span export.
func (r *Run) TraceID() string { return r.tracer.TraceID() }

// TraceTree renders the run's span tree as indented JSON (the
// GET /runs/{id}/trace default).
func (r *Run) TraceTree() []byte { return r.tracer.Tree() }

// TraceChrome renders the run's spans in Chrome trace_event format
// (?format=chrome).
func (r *Run) TraceChrome() []byte { return r.tracer.Chrome() }

// TraceOTLP renders the run's spans as OTLP-style NDJSON (?format=otlp).
func (r *Run) TraceOTLP() []byte { return r.tracer.OTLP() }

// TraceSpans returns the run's raw span snapshot for tests.
func (r *Run) TraceSpans() []span.SpanData { return r.tracer.Snapshot() }
