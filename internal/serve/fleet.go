package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"cppcache/internal/ledger"
	"cppcache/internal/runstate"
)

// recordTerminal builds the ledger record for a run that just reached a
// terminal state, feeds the in-memory fleet rollup, and — when a ledger
// writer is configured — appends it durably. An append failure is counted
// and logged but never propagates into the run's own lifecycle.
func (g *Registry) recordTerminal(run *Run) {
	run.mu.Lock()
	state := run.state
	errMsg := run.errMsg
	created, finished := run.created, run.finished
	res := run.result
	totals := run.totals
	intervals := run.snapBase + run.snapCount
	memoized, memoRun := run.memoized, run.memoRun
	run.mu.Unlock()

	// Per-stage durations for this run alone: the closed lifecycle spans,
	// summed by name. SSE streaming spans are consumer-side, not run
	// anatomy, so they stay out of the record.
	stages := map[string]float64{}
	for _, sp := range run.tracer.Snapshot() {
		if sp.End.IsZero() || strings.HasPrefix(sp.Name, "sse.") {
			continue
		}
		stages[sp.Name] += sp.Duration().Seconds()
	}

	rec := ledger.Record{
		Schema:       ledger.SchemaVersion,
		RunID:        run.ID,
		TraceID:      run.TraceID(),
		Workload:     run.Spec.Workload,
		Config:       run.Spec.Config,
		Compressor:   run.Spec.Compressor,
		Scale:        run.Spec.Scale,
		Functional:   run.Spec.Functional,
		State:        string(state),
		Chaos:        run.Spec.Chaos != nil,
		Memoized:     memoized,
		MemoSource:   memoRun,
		Panic:        strings.HasPrefix(errMsg, "panic:"),
		Error:        firstLine(errMsg),
		Created:      created,
		Finished:     finished,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		StageSeconds: stages,
		Intervals:    intervals,
		Instructions: totals.Instructions,
		L1Misses:     totals.L1Misses,
		TrafficWords: totals.TrafficWords(),
	}
	if h, err := ledger.SpecHash(run.Spec); err == nil {
		rec.SpecHash = h
	}
	if res != nil {
		if d, err := ledger.ResultDigest(res); err == nil {
			rec.ResultDigest = d
		}
	}

	// A real, fault-free completion enters (or refreshes) the memo store;
	// memoized runs never do — the chain always points at an execution.
	// Digest drift against a prior entry for the same spec hash is a
	// determinism violation worth shouting about.
	if g.memo != nil && state == StateDone && !memoized && run.Spec.Chaos == nil &&
		res != nil && rec.ResultDigest != "" && rec.SpecHash != "" {
		snaps, from, _, _ := run.SnapsFrom(0)
		attrText, attrColl := run.Profile()
		drift := g.memo.store(&memoEntry{
			specHash:    rec.SpecHash,
			runID:       run.ID,
			traceID:     rec.TraceID,
			digest:      rec.ResultDigest,
			full:        true,
			totals:      totals,
			snaps:       snaps,
			snapBase:    from,
			snapDropped: run.SnapshotsDropped(),
			result:      res,
			attrText:    attrText,
			attrColl:    attrColl,
		})
		if drift {
			g.log.Error("memo digest drift: same spec hash produced a different result digest",
				"run_id", run.ID, "trace_id", rec.TraceID, "spec_hash", rec.SpecHash,
				"digest", rec.ResultDigest)
		}
	}

	g.fleet.Add(rec)
	if g.cfg.Ledger != nil {
		if err := g.cfg.Ledger.Append(rec); err != nil {
			g.mu.Lock()
			g.ledgerErrors++
			g.mu.Unlock()
			g.log.Error("ledger append failed", "run_id", run.ID,
				"trace_id", rec.TraceID, "err", err)
		}
	}
}

// firstLine truncates an error message to its first line, capped, so a
// recovered panic's stack trace does not bloat every ledger record.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const maxLen = 200
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	return s
}

// SeedFleet loads replayed ledger records into the fleet rollup
// (cppserved calls it at boot so /fleet spans server restarts) and
// warm-starts the memo index: every replayed fault-free done record
// seeds an index-only entry so post-boot re-executions are digest-checked
// against the ledgered result (and promoted to full, servable entries).
func (g *Registry) SeedFleet(recs []ledger.Record) {
	g.fleet.AddAll(recs)
	if g.memo != nil {
		n := g.memo.seed(recs)
		if n > 0 {
			g.log.Info("memo index warm-started from ledger", "entries", n)
		}
	}
}

// FleetRecords returns the fleet's records (tests and diff tooling).
func (g *Registry) FleetRecords() []ledger.Record { return g.fleet.Records() }

// FleetAggregate aggregates the fleet rollup (see ledger.Rollup.Aggregate).
func (g *Registry) FleetAggregate(f ledger.Filter, dims ...string) (*ledger.Aggregate, error) {
	return g.fleet.Aggregate(f, dims...)
}

// LedgerPath returns the configured ledger file ("" when persistence is
// off); surfaces in cppserved_build_info.
func (g *Registry) LedgerPath() string { return g.cfg.Ledger.Path() }

// Role returns this process's fabric role ("single", "coordinator" or
// "worker"); surfaces in cppserved_build_info.
func (g *Registry) Role() string { return g.cfg.Role }

// fleetFilterFromQuery parses the /fleet query parameters: label filters
// (workload, config, compressor, state), an absolute time window (since,
// until, RFC3339) or a relative one (window, Go duration ending now).
func fleetFilterFromQuery(r *http.Request) (ledger.Filter, error) {
	q := r.URL.Query()
	f := ledger.Filter{
		Workload:   q.Get("workload"),
		Config:     q.Get("config"),
		Compressor: q.Get("compressor"),
		State:      q.Get("state"),
	}
	if f.State != "" && !knownState(f.State) {
		return f, fmt.Errorf("unknown state %q (known: %s)", f.State, strings.Join(stateNames(), ", "))
	}
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return f, fmt.Errorf("bad since %q: %v", v, err)
		}
		f.Since = t
	}
	if v := q.Get("until"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return f, fmt.Errorf("bad until %q: %v", v, err)
		}
		f.Until = t
	}
	if v := q.Get("window"); v != "" {
		if !f.Since.IsZero() || !f.Until.IsZero() {
			return f, fmt.Errorf("window is exclusive with since/until")
		}
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return f, fmt.Errorf("bad window %q (want a positive Go duration like 1h)", v)
		}
		f.Since = time.Now().Add(-d)
	}
	return f, nil
}

// knownState reports whether s names a lifecycle state.
func knownState(s string) bool {
	for _, st := range runstate.All() {
		if string(st) == s {
			return true
		}
	}
	return false
}

// stateNames lists the lifecycle states as strings.
func stateNames() []string {
	out := make([]string, 0, len(runstate.All()))
	for _, st := range runstate.All() {
		out = append(out, string(st))
	}
	return out
}

// handleFleet is GET /fleet: the full-dimension fleet aggregation
// (workload x config x compressor x state) with optional filters.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	f, err := fleetFilterFromQuery(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, err := s.reg.FleetAggregate(f)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, agg)
}

// handleFleetDim is GET /fleet/{dimension}: the fleet collapsed onto one
// grouping axis (workload, config, compressor or state).
func (s *Server) handleFleetDim(w http.ResponseWriter, r *http.Request) {
	dim := r.PathValue("dimension")
	if !ledger.KnownDimension(dim) {
		jsonError(w, http.StatusBadRequest,
			"unknown dimension %q (known: %s)", dim, strings.Join(ledger.Dimensions, ", "))
		return
	}
	f, err := fleetFilterFromQuery(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, err := s.reg.FleetAggregate(f, dim)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, agg)
}

// writeFleetMetrics renders the cppserved_fleet_* families from the full
// fleet aggregate: per-group run counts, summed counters and per-stage
// duration sums/counts. Labels are escaped like every other family; the
// JSON /fleet view carries the exemplar trace IDs Prometheus text
// exposition cannot.
func writeFleetMetrics(w *strings.Builder, agg *ledger.Aggregate) {
	label := func(g *ledger.Group) string {
		return fmt.Sprintf(`workload="%s",config="%s",compressor="%s",state="%s"`,
			escapeLabel(g.Workload), escapeLabel(g.Config),
			escapeLabel(g.Compressor), escapeLabel(g.State))
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_runs_total Terminal runs recorded in the fleet ledger rollup.\n# TYPE cppserved_fleet_runs_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_runs_total{%s} %d\n", label(g), g.Runs)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_instructions_total Instructions retired, summed over the group's terminal runs.\n# TYPE cppserved_fleet_instructions_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_instructions_total{%s} %d\n", label(g), g.Instructions)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_l1_misses_total L1 misses, summed over the group's terminal runs.\n# TYPE cppserved_fleet_l1_misses_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_l1_misses_total{%s} %d\n", label(g), g.L1Misses)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_traffic_words_total Off-chip traffic words, summed over the group's terminal runs.\n# TYPE cppserved_fleet_traffic_words_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_traffic_words_total{%s} %v\n", label(g), g.TrafficWords)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_panics_total Recovered panics, summed over the group's terminal runs.\n# TYPE cppserved_fleet_panics_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_panics_total{%s} %d\n", label(g), g.Panics)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_stage_seconds_sum Wall-clock seconds per lifecycle stage, summed over the group's terminal runs.\n# TYPE cppserved_fleet_stage_seconds_sum counter\n")
	fmt.Fprintf(w, "# HELP cppserved_fleet_stage_seconds_count Runs contributing to cppserved_fleet_stage_seconds_sum.\n# TYPE cppserved_fleet_stage_seconds_count counter\n")
	for _, g := range agg.Groups {
		stages := make([]string, 0, len(g.Stages))
		for st := range g.Stages {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		for _, st := range stages {
			fmt.Fprintf(w, "cppserved_fleet_stage_seconds_sum{%s,stage=\"%s\"} %v\n",
				label(g), escapeLabel(st), g.Stages[st].SumSeconds)
			fmt.Fprintf(w, "cppserved_fleet_stage_seconds_count{%s,stage=\"%s\"} %d\n",
				label(g), escapeLabel(st), g.Stages[st].Count)
		}
	}
}
