package cppcache

import (
	"context"
	"reflect"
	"testing"

	"cppcache/internal/span"
)

// TestTracingIsInert: the run-control fields of Options — a tracing span,
// a live context, an inert fault hook — and the observation itself must
// not change any simulation output. The result struct, the interval
// snapshot series and the rendered metrics CSV must be byte-identical to
// an observed run without them, while the tracer captures the full stage
// breakdown.
func TestTracingIsInert(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		set  func(o *Options, root *span.Span)
	}{
		{"span", func(o *Options, root *span.Span) { o.Span = root }},
		{"ctx", func(o *Options, _ *span.Span) { o.Ctx = ctx }},
		{"fault", func(o *Options, _ *span.Span) { o.FaultHook = func(string) {} }},
		{"unobserved", func(o *Options, _ *span.Span) { o.Observe = nil }},
	}
	for _, cfg := range []CacheConfig{CPP, BC} {
		for _, functional := range []bool{true, false} {
			oo := ObserveOptions{IntervalCycles: 5000}
			baseObs := NewObservation(oo)
			base, err := Run("olden.treeadd", cfg, Options{Scale: 1, FunctionalOnly: functional, Observe: baseObs})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				tr := span.New(0)
				root := tr.Start("run", nil)
				opts := Options{Scale: 1, FunctionalOnly: functional, Observe: NewObservation(oo)}
				c.set(&opts, root)
				got, err := Run("olden.treeadd", cfg, opts)
				root.End()
				if err != nil {
					t.Fatal(err)
				}

				if got != base {
					t.Errorf("%s functional=%v %s: results diverged\n  base: %+v\n  got:  %+v",
						cfg, functional, c.name, base, got)
				}
				if ob := opts.Observe; ob != nil {
					if !reflect.DeepEqual(baseObs.Snapshots(), ob.Snapshots()) {
						t.Errorf("%s functional=%v %s: snapshot series diverged", cfg, functional, c.name)
					}
					if baseObs.MetricsCSV() != ob.MetricsCSV() {
						t.Errorf("%s functional=%v %s: metrics CSV diverged", cfg, functional, c.name)
					}
				}
				if opts.Span == nil {
					if tr.Len() != 1 {
						t.Errorf("%s functional=%v %s: %d spans recorded without a parent span",
							cfg, functional, c.name, tr.Len())
					}
					continue
				}

				// The traced run must have captured the full stage anatomy,
				// correctly nested and closed.
				stages := map[string]span.SpanData{}
				for _, d := range tr.Snapshot() {
					stages[d.Name] = d
				}
				for _, name := range []string{"workload.build", "sim.build", "sim.run", "sim.finish"} {
					d, ok := stages[name]
					if !ok {
						t.Fatalf("%s functional=%v: no %q span (have %d spans)", cfg, functional, name, tr.Len())
					}
					if d.ParentID != root.ID() {
						t.Errorf("%s span not parented on the run root", name)
					}
					if d.End.IsZero() {
						t.Errorf("%s span left open", name)
					}
					if d.Start.Before(stages["workload.build"].Start) {
						t.Errorf("%s span starts before workload.build", name)
					}
				}
				wb := stages["workload.build"]
				if len(wb.Events) != 1 || wb.Events[0].Name != "decode.cache" {
					t.Errorf("workload.build events = %+v, want one decode.cache event", wb.Events)
				}
			}
		}
	}
}

// TestTracingNilSpanRecordsNothing: the disabled path must leave the
// tracer untouched (the Options zero value carries a nil span, and every
// hook downstream must no-op through it).
func TestTracingNilSpanRecordsNothing(t *testing.T) {
	_, err := Run("olden.treeadd", BC, Options{Scale: 1, FunctionalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var nilSpan *span.Span
	_, err = Run("olden.treeadd", BC, Options{Scale: 1, FunctionalOnly: true, Span: nilSpan})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlainRunAllocs bounds the allocations of a plain functional run, with
// every run-control and observation field of Options left zero, by the 1107
// that system construction and the run's touched pages cost on
// olden.treeadd at scale 1. The zero fields must allocate nothing; an
// obs.Recorder alone would break the bound.
func TestPlainRunAllocs(t *testing.T) {
	p, err := BuildBenchmark("olden.treeadd", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: 1, FunctionalOnly: true}
	run := func() {
		if _, err := RunProgram(p, BC, opts); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > 1107 {
		t.Errorf("plain functional BC run: %v allocs, want <= 1107", allocs)
	}
}
