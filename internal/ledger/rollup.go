package ledger

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"cppcache/internal/obs"
)

// Dimensions are the grouping axes a rollup understands, in canonical
// order.
var Dimensions = []string{"workload", "config", "compressor", "state"}

// KnownDimension reports whether dim is a valid grouping axis.
func KnownDimension(dim string) bool {
	for _, d := range Dimensions {
		if d == dim {
			return true
		}
	}
	return false
}

// Filter restricts which records participate in an aggregation. Empty
// string fields match everything; zero times are open-ended.
type Filter struct {
	Workload   string
	Config     string
	Compressor string
	State      string
	// Since/Until bound Record.Finished (inclusive since, exclusive
	// until).
	Since time.Time
	Until time.Time
}

// Rollup holds the fleet's records in memory and aggregates them on
// demand. Aggregation is recomputed per query so time-window and label
// filters are exact, never approximated from pre-merged state. Safe for
// concurrent use.
//
// Each record is stored as one fixed-size row. The strings and small
// integers a record's spec, outcome and stage names decide are interned
// as one label per distinct combination, so the tables grow with the
// spec catalogue, not the run count; a 32-hex-char trace ID is held as
// 16 bytes; stage seconds live in one shared arena, in row order.
type Rollup struct {
	mu sync.Mutex
	t  table
}

// table is everything a query reads. Rows and interned values are
// append-only, so a copy of the slice headers taken under the lock stays
// valid after it is released.
type table struct {
	rows   []row
	secs   []float64        // stage seconds, in row order, each row's in label.stages order
	traces interner[string] // trace IDs that are not 32 lowercase hex chars
	labels interner[label]
	names  interner[string] // stage names
}

// row is one record. Times are Unix seconds plus nanoseconds: UnixNano
// cannot hold the zero time or anything outside 1678–2262, and Records
// must give back exactly what was added.
type row struct {
	created, finished            int64
	instructions, l1Misses       int64
	trafficWords                 float64
	runID, memoSource, intervals int
	createdNs, finishedNs        int32
	trace                        [16]byte
	traceStr                     uint32 // index+1 into traces; 0 when trace holds the ID
	label                        uint32
}

// label is the part of a record that its spec, process, outcome and
// stage names decide.
type label struct {
	schema, scale, goMaxProcs              int
	workload, config, compressor, specHash string
	state, digest, err                     string
	stages                                 string // sorted stage-name IDs, 4 bytes each
	functional, chaos, panic, memoized     bool
	hasStages                              bool // StageSeconds was not nil
}

// interner numbers distinct values in order of first sight.
type interner[K comparable] struct {
	ids  map[K]uint32
	vals []K
}

func (in *interner[K]) id(v K) uint32 {
	id, ok := in.ids[v]
	if !ok {
		if in.ids == nil {
			in.ids = map[K]uint32{}
		}
		id = uint32(len(in.vals))
		in.vals = append(in.vals, v)
		in.ids[v] = id
	}
	return id
}

// NewRollup returns an empty rollup.
func NewRollup() *Rollup { return &Rollup{} }

// Add appends one record.
func (ro *Rollup) Add(rec Record) {
	ro.mu.Lock()
	ro.add(&rec)
	ro.mu.Unlock()
}

// AddAll appends a replayed batch (boot-time seeding).
func (ro *Rollup) AddAll(recs []Record) {
	ro.mu.Lock()
	for i := range recs {
		ro.add(&recs[i])
	}
	ro.mu.Unlock()
}

func (ro *Rollup) add(rec *Record) {
	t := &ro.t
	ids := make([]uint32, 0, len(rec.StageSeconds))
	for name := range rec.StageSeconds {
		ids = append(ids, t.names.id(name))
	}
	slices.Sort(ids)
	stages := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		stages = binary.LittleEndian.AppendUint32(stages, id)
		t.secs = append(t.secs, rec.StageSeconds[t.names.vals[id]])
	}
	r := row{
		created: rec.Created.Unix(), createdNs: int32(rec.Created.Nanosecond()),
		finished: rec.Finished.Unix(), finishedNs: int32(rec.Finished.Nanosecond()),
		instructions: rec.Instructions, l1Misses: rec.L1Misses, trafficWords: rec.TrafficWords,
		runID: rec.RunID, memoSource: rec.MemoSource, intervals: rec.Intervals,
		label: t.labels.id(label{
			schema: rec.Schema, scale: rec.Scale, goMaxProcs: rec.GoMaxProcs,
			workload: rec.Workload, config: rec.Config, compressor: rec.Compressor,
			specHash: rec.SpecHash, state: rec.State, digest: rec.ResultDigest, err: rec.Error,
			stages: string(stages), hasStages: rec.StageSeconds != nil,
			functional: rec.Functional, chaos: rec.Chaos, panic: rec.Panic, memoized: rec.Memoized,
		}),
	}
	if b, err := hex.DecodeString(rec.TraceID); err == nil && len(b) == len(r.trace) && hex.EncodeToString(b) == rec.TraceID {
		r.trace = [16]byte(b)
	} else {
		r.traceStr = 1 + t.traces.id(rec.TraceID)
	}
	t.rows = append(t.rows, r)
}

// traceID rebuilds r's trace ID.
func (t *table) traceID(r *row) string {
	if r.traceStr > 0 {
		return t.traces.vals[r.traceStr-1]
	}
	return hex.EncodeToString(r.trace[:])
}

// nameAt returns the i-th name ID of a label's stages.
func nameAt(stages string, i int) uint32 {
	return binary.LittleEndian.Uint32([]byte(stages[4*i : 4*i+4]))
}

func unixTime(sec int64, ns int32) time.Time { return time.Unix(sec, int64(ns)) }

// Len reports how many records the rollup holds.
func (ro *Rollup) Len() int {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return len(ro.t.rows)
}

// Records rebuilds the held records in append order.
func (ro *Rollup) Records() []Record {
	ro.mu.Lock()
	t := ro.t
	ro.mu.Unlock()
	out := make([]Record, len(t.rows))
	off := 0
	for i := range t.rows {
		r := &t.rows[i]
		l := &t.labels.vals[r.label]
		out[i] = Record{
			Schema: l.schema, RunID: r.runID, TraceID: t.traceID(r),
			SpecHash: l.specHash, ResultDigest: l.digest,
			Workload: l.workload, Config: l.config, Compressor: l.compressor,
			Scale: l.scale, Functional: l.functional,
			State: l.state, Chaos: l.chaos, Panic: l.panic, Error: l.err,
			Memoized: l.memoized, MemoSource: r.memoSource,
			Created: unixTime(r.created, r.createdNs), Finished: unixTime(r.finished, r.finishedNs),
			GoMaxProcs: l.goMaxProcs,
			Intervals:  r.intervals, Instructions: r.instructions,
			L1Misses: r.l1Misses, TrafficWords: r.trafficWords,
		}
		if l.hasStages {
			n := len(l.stages) / 4
			m := make(map[string]float64, n)
			for j := 0; j < n; j++ {
				m[t.names.vals[nameAt(l.stages, j)]] = t.secs[off+j]
			}
			off += n
			out[i].StageSeconds = m
		}
	}
	return out
}

// match reports whether row r, labelled l, passes the filter.
func (f Filter) match(l *label, r *row) bool {
	if f.Workload != "" && l.workload != f.Workload {
		return false
	}
	if f.Config != "" && l.config != f.Config {
		return false
	}
	if f.Compressor != "" && l.compressor != f.Compressor {
		return false
	}
	if f.State != "" && l.state != f.State {
		return false
	}
	finished := unixTime(r.finished, r.finishedNs)
	if !f.Since.IsZero() && finished.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !finished.Before(f.Until) {
		return false
	}
	return true
}

// Summary describes a set of float observations: exact sum plus min,
// mean and max.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

func (s *Summary) observe(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	s.Mean = s.Sum / float64(s.Count)
}

// BucketStat is one non-empty stage-latency histogram bucket with its
// exemplar: the trace and run IDs of a real run whose duration landed in
// the bucket, so every point of the distribution links back to a concrete
// trace (GET /runs/{id}/trace).
type BucketStat struct {
	LoMicros      int64  `json:"lo_us"`
	HiMicros      int64  `json:"hi_us"`
	Count         int64  `json:"count"`
	ExemplarTrace string `json:"exemplar_trace_id,omitempty"`
	ExemplarRun   int    `json:"exemplar_run_id,omitempty"`
}

// StageStats aggregates one lifecycle stage's latency across a group.
// SumSeconds is the exact sum of the constituent records' stage seconds;
// quantiles are bucket upper bounds (within 2x, clamped to the max).
type StageStats struct {
	Count      int64        `json:"count"`
	SumSeconds float64      `json:"sum_seconds"`
	P50        float64      `json:"p50_seconds"`
	P95        float64      `json:"p95_seconds"`
	P99        float64      `json:"p99_seconds"`
	MaxSeconds float64      `json:"max_seconds"`
	Buckets    []BucketStat `json:"buckets,omitempty"`
}

// stageAgg is the in-flight accumulator behind StageStats.
type stageAgg struct {
	hist      *obs.Histogram // duration in microseconds
	sum       float64        // exact seconds, not reconstructed from buckets
	exemplars map[int]int    // bucket index -> first row observed in it
}

func (sa *stageAgg) observe(seconds float64, rowIdx int) {
	us := int64(seconds * 1e6)
	sa.hist.Observe(us)
	sa.sum += seconds
	idx := obs.BucketIndex(us)
	if _, ok := sa.exemplars[idx]; !ok {
		sa.exemplars[idx] = rowIdx
	}
}

func (sa *stageAgg) stats(t *table) StageStats {
	st := StageStats{
		Count:      sa.hist.Count,
		SumSeconds: sa.sum,
		P50:        float64(sa.hist.Quantile(0.50)) / 1e6,
		P95:        float64(sa.hist.Quantile(0.95)) / 1e6,
		P99:        float64(sa.hist.Quantile(0.99)) / 1e6,
		MaxSeconds: float64(sa.hist.Max) / 1e6,
	}
	for _, b := range sa.hist.Buckets() {
		r := &t.rows[sa.exemplars[obs.BucketIndex(b.Hi)]]
		st.Buckets = append(st.Buckets, BucketStat{
			LoMicros:      b.Lo,
			HiMicros:      b.Hi,
			Count:         b.Count,
			ExemplarTrace: t.traceID(r),
			ExemplarRun:   r.runID,
		})
	}
	return st
}

// Group is one aggregation cell. The dimension fields not being grouped
// by are empty. Counter fields are exact sums of the member records'
// totals — the conservation tests hold them equal to the sum of live
// registry counters.
type Group struct {
	Workload   string `json:"workload,omitempty"`
	Config     string `json:"config,omitempty"`
	Compressor string `json:"compressor,omitempty"`
	State      string `json:"state,omitempty"`

	Runs         int64   `json:"runs"`
	Panics       int64   `json:"panics,omitempty"`
	ChaosRuns    int64   `json:"chaos_runs,omitempty"`
	Memoized     int64   `json:"memoized,omitempty"`
	Intervals    int64   `json:"intervals"`
	Instructions int64   `json:"instructions"`
	L1Misses     int64   `json:"l1_misses"`
	TrafficWords float64 `json:"traffic_words"`

	// TrafficPerKiloInst summarises traffic_words*1000/instructions over
	// the member runs that retired instructions — the fleet-level view of
	// the paper's traffic-ratio comparisons, per group.
	TrafficPerKiloInst *Summary `json:"traffic_per_kilo_inst,omitempty"`

	// Stages maps lifecycle stage name to its latency aggregate.
	Stages map[string]StageStats `json:"stages,omitempty"`

	// ExemplarTraces samples up to one trace ID per distinct spec_hash
	// (first seen), capped, for drill-down from the group itself.
	ExemplarTraces []string `json:"exemplar_trace_ids,omitempty"`

	// SpecHashes counts distinct spec hashes in the group — how many
	// semantically different runs the cell aggregates.
	SpecHashes int `json:"spec_hashes"`
}

func (g *Group) key() string {
	return g.Workload + "\x00" + g.Config + "\x00" + g.Compressor + "\x00" + g.State
}

// Aggregate is the result of one rollup query: the participating record
// count, the grouping dimensions, and one Group per distinct key, sorted.
type Aggregate struct {
	TotalRuns  int64     `json:"total_runs"`
	Dimensions []string  `json:"dimensions"`
	Since      time.Time `json:"since"`
	Until      time.Time `json:"until"`
	Groups     []*Group  `json:"groups"`
}

// maxGroupExemplars caps ExemplarTraces per group.
const maxGroupExemplars = 8

// groupAcc accumulates one Group.
type groupAcc struct {
	g        *Group
	stages   map[uint32]*stageAgg // by stage-name ID
	specSeen map[string]bool
}

// Aggregate groups the filtered records by the given dimensions (all of
// Dimensions when none are named). Unknown dimension names are an error.
func (ro *Rollup) Aggregate(f Filter, dims ...string) (*Aggregate, error) {
	if len(dims) == 0 {
		dims = Dimensions
	}
	byDim := map[string]bool{}
	for _, d := range dims {
		if !KnownDimension(d) {
			return nil, fmt.Errorf("unknown dimension %q (known: workload, config, compressor, state)", d)
		}
		byDim[d] = true
	}

	ro.mu.Lock()
	t := ro.t
	ro.mu.Unlock()
	agg := &Aggregate{Dimensions: dims, Since: f.Since, Until: f.Until}
	groups := map[string]*groupAcc{}
	byLabel := map[uint32]*groupAcc{}
	off := 0
	for i := range t.rows {
		r, l := &t.rows[i], &t.labels.vals[t.rows[i].label]
		secs := t.secs[off : off+len(l.stages)/4]
		off += len(secs)
		if !f.match(l, r) {
			continue
		}
		agg.TotalRuns++
		ga := byLabel[r.label]
		if ga == nil {
			g := &Group{}
			if byDim["workload"] {
				g.Workload = l.workload
			}
			if byDim["config"] {
				g.Config = l.config
			}
			if byDim["compressor"] {
				g.Compressor = l.compressor
			}
			if byDim["state"] {
				g.State = l.state
			}
			k := g.key()
			if ga = groups[k]; ga == nil {
				ga = &groupAcc{g: g, stages: map[uint32]*stageAgg{}, specSeen: map[string]bool{}}
				groups[k] = ga
			}
			byLabel[r.label] = ga
		}

		g := ga.g
		g.Runs++
		if l.panic {
			g.Panics++
		}
		if l.chaos {
			g.ChaosRuns++
		}
		if l.memoized {
			g.Memoized++
		}
		g.Intervals += int64(r.intervals)
		g.Instructions += r.instructions
		g.L1Misses += r.l1Misses
		g.TrafficWords += r.trafficWords
		if r.instructions > 0 {
			if g.TrafficPerKiloInst == nil {
				g.TrafficPerKiloInst = &Summary{}
			}
			g.TrafficPerKiloInst.observe(r.trafficWords * 1000 / float64(r.instructions))
		}
		for j, secs := range secs {
			name := nameAt(l.stages, j)
			sa := ga.stages[name]
			if sa == nil {
				sa = &stageAgg{hist: obs.NewHistogram(t.names.vals[name]), exemplars: map[int]int{}}
				ga.stages[name] = sa
			}
			sa.observe(secs, i)
		}
		if !ga.specSeen[l.specHash] {
			ga.specSeen[l.specHash] = true
			g.SpecHashes++
			if len(g.ExemplarTraces) < maxGroupExemplars {
				if id := t.traceID(r); id != "" {
					g.ExemplarTraces = append(g.ExemplarTraces, id)
				}
			}
		}
	}

	for _, ga := range groups {
		for name, sa := range ga.stages {
			if ga.g.Stages == nil {
				ga.g.Stages = map[string]StageStats{}
			}
			ga.g.Stages[t.names.vals[name]] = sa.stats(&t)
		}
		agg.Groups = append(agg.Groups, ga.g)
	}
	sort.Slice(agg.Groups, func(i, j int) bool {
		return agg.Groups[i].key() < agg.Groups[j].key()
	})
	return agg, nil
}
