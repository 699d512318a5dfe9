package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/compress"
	"cppcache/internal/cpu"
	"cppcache/internal/fabric"
	"cppcache/internal/isa"
	"cppcache/internal/ledger"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/serve"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/trace"
	"cppcache/internal/workload"
)

// The layer probes time public calls into one layer at a time, from the
// benchmark's own code. Each runs over the workload's own programs, so a
// probe reports the layer's cost on the inputs that workload feeds it.
// The simulator probes run on the main goroutine, locked to its thread, and
// are timed by its CPU time like the simulator workloads; the service and
// fabric probes wait on other goroutines and use wall-clock time.

// The paper's average CPP/BC ratios (PAPER.md): execution time and
// memory traffic.
const (
	paperTimeRatio    = 0.93
	paperTrafficRatio = 0.90
)

// lineWords is the L2 line, the unit of compressed off-chip transfers.
const lineWords = 32

// fixedMem is a memsys.System with a flat one-cycle latency over plain
// main memory: it isolates the out-of-order core from any cache model.
type fixedMem struct {
	m     *mem.Memory
	stats memsys.Stats
}

func (f *fixedMem) Read(a mach.Addr) (mach.Word, int)  { return f.m.ReadWord(a), 1 }
func (f *fixedMem) Write(a mach.Addr, v mach.Word) int { f.m.WriteWord(a, v); return 1 }
func (f *fixedMem) Stats() *memsys.Stats               { return &f.stats }
func (f *fixedMem) Name() string                       { return "fixed" }

// decodedPrograms returns the shared pre-decoded trace of each program.
func decodedPrograms(progs []progKey) ([]*trace.Decoded, error) {
	var out []*trace.Decoded
	for _, k := range progs {
		p, err := workload.BuildShared(k.bench, k.scale)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Decoded())
	}
	return out, nil
}

// simProbes runs the simulator probes over progs, each under its own span.
// functional selects the mode of the allocs-per-run probe: the workload's
// own.
func simProbes(m metrics, tr *span.Tracer, progs []progKey, functional bool, builds []buildSample) error {
	var buildMS, decodeNS []float64
	for _, b := range builds {
		buildMS = append(buildMS, ms(b.build))
		decodeNS = append(decodeNS, float64(b.decode.Nanoseconds())/float64(b.insts))
	}
	m.set("workload.build_ms", median(buildMS), "ms")
	m.set("trace.decode_ns_per_inst", median(decodeNS), "ns")
	m.set("trace.bytes_per_inst", float64(builds[0].bytes)/float64(builds[0].insts), "B")

	lat := memsys.DefaultLatencies()
	sp := tr.Start("probe.construct", nil)
	for _, c := range allConfigs {
		name := c.simName()
		var us []float64
		for i := 0; i < 21; i++ {
			t0 := threadCPU()
			if _, err := sim.NewSystem(name, mem.New(), lat); err != nil {
				return err
			}
			us = append(us, float64((threadCPU()-t0).Nanoseconds())/1e3)
		}
		m.set("sim.construct_us."+c.label, median(us), "us")
		allocs, err := exactAllocs(func() error {
			_, err := sim.NewSystem(name, mem.New(), lat)
			return err
		})
		if err != nil {
			return err
		}
		m.set("sim.construct_allocs."+c.label, allocs, "count")
	}
	sp.End()

	traces, err := decodedPrograms(progs)
	if err != nil {
		return err
	}
	sp = tr.Start("probe.core-only", nil)
	coreDur, err := coreOnly(m, traces)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.Start("probe.hierarchy-only", nil)
	hierDur, err := hierarchyOnly(m, traces, lat)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.Start("probe.compressor", nil)
	err = compressorKernels(m, traces)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.Start("probe.allocs-per-run", nil)
	err = allocsPerRun(m, progs, functional)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.Start("probe.ratios", nil)
	defer sp.End()
	return ratios(m, progs, 2*coreDur+hierDur["BC"]+hierDur["CPP"])
}

// coreOnly runs every trace through the out-of-order core over the
// fixed-latency stub and returns the summed time.
func coreOnly(m metrics, traces []*trace.Decoded) (time.Duration, error) {
	var total time.Duration
	var insts, cycles int64
	for _, d := range traces {
		c, err := cpu.New(cpu.DefaultParams(), &fixedMem{m: mem.New()})
		if err != nil {
			return 0, err
		}
		t0 := threadCPU()
		r := c.Run(d.Replay())
		total += threadCPU() - t0
		if r.ValueMismatches != 0 {
			return 0, fmt.Errorf("core-only probe: %d load value mismatches", r.ValueMismatches)
		}
		insts += r.Instructions
		cycles += r.Cycles
	}
	m.set("cpu.ns_per_inst", float64(total.Nanoseconds())/float64(insts), "ns")
	m.set("cpu.insts", float64(insts), "count")
	m.set("cpu.cycles", float64(cycles), "count")
	return total, nil
}

// hierarchyOnly replays every trace's loads and stores, in program order,
// through a fresh hierarchy of each configuration, and returns the
// summed replay time per configuration label.
func hierarchyOnly(m metrics, traces []*trace.Decoded, lat memsys.Latencies) (map[string]time.Duration, error) {
	durs := map[string]time.Duration{}
	var accesses, l1Misses, affHits int64
	var traffic float64
	for _, c := range allConfigs {
		var n int64
		for _, d := range traces {
			sys, err := sim.NewSystem(c.simName(), mem.New(), lat)
			if err != nil {
				return nil, err
			}
			ops, addrs, values := d.Ops(), d.Addrs(), d.Values()
			var mismatches int64
			t0 := threadCPU()
			for i, op := range ops {
				switch op {
				case isa.OpLoad:
					if v, _ := sys.Read(addrs[i]); v != values[i] {
						mismatches++
					}
					n++
				case isa.OpStore:
					sys.Write(addrs[i], values[i])
					n++
				}
			}
			durs[c.label] += threadCPU() - t0
			if mismatches != 0 {
				return nil, fmt.Errorf("hierarchy probe %s: %d load value mismatches", c.label, mismatches)
			}
			s := sys.Stats()
			accesses += s.L1.Accesses
			l1Misses += s.L1.Misses
			affHits += s.AffHitsL1 + s.AffHitsL2
			traffic += s.MemTrafficWords()
		}
		perAccess := float64(durs[c.label].Nanoseconds()) / float64(n)
		if c.label == "CPP" {
			m.set("core.ns_per_access", perAccess, "ns")
		} else {
			m.set("hier.ns_per_access."+c.label, perAccess, "ns")
		}
	}
	m.set("hier.accesses", float64(accesses), "count")
	m.set("hier.l1_misses", float64(l1Misses), "count")
	m.set("mem.traffic_words", traffic, "words")
	m.set("core.aff_hits", float64(affHits), "count")
	return durs, nil
}

// touchedLines returns every distinct L2 line the traces touch, holding
// the values the trace leaves in it.
func touchedLines(traces []*trace.Decoded) (bases []mach.Addr, images [][]mach.Word) {
	for _, d := range traces {
		img := mem.New()
		seen := map[mach.Addr]bool{}
		ops, addrs, values := d.Ops(), d.Addrs(), d.Values()
		for i, op := range ops {
			if op != isa.OpLoad && op != isa.OpStore {
				continue
			}
			seen[addrs[i]&^(lineWords*mach.WordBytes-1)] = true
			if op == isa.OpStore {
				img.WriteWord(addrs[i], values[i])
			}
		}
		lines := make([]mach.Addr, 0, len(seen))
		for a := range seen {
			lines = append(lines, a)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		for _, a := range lines {
			words := make([]mach.Word, lineWords)
			img.ReadLine(a, words)
			bases = append(bases, a)
			images = append(images, words)
		}
	}
	return bases, images
}

// compressorKernels times each registered scheme's LineHalves over the
// lines the traces touch.
func compressorKernels(m metrics, traces []*trace.Decoded) error {
	bases, images := touchedLines(traces)
	for _, name := range compress.Schemes() {
		c, err := compress.Get(name)
		if err != nil {
			return err
		}
		best := time.Duration(math.MaxInt64)
		var halves int
		for rep := 0; rep < 3; rep++ {
			halves = 0
			t0 := threadCPU()
			for i, w := range images {
				halves += c.LineHalves(w, bases[i])
			}
			best = min(best, threadCPU()-t0)
		}
		m.set("compress.ns_per_line."+name, float64(best.Nanoseconds())/float64(len(images)), "ns")
		m.set("compress.halves_per_line."+name, float64(halves)/float64(len(images)), "halves")
	}
	return nil
}

// allocsPerRun counts heap allocations of one RunProgram per
// configuration on the workload's shortest program, in its mode.
func allocsPerRun(m metrics, progs []progKey, functional bool) error {
	shared, err := sharedPrograms(progs)
	if err != nil {
		return err
	}
	var p *cppcache.Program
	var scale int
	for k, q := range shared {
		if p == nil || q.Len() < p.Len() || (q.Len() == p.Len() && q.Name() < p.Name()) {
			p, scale = q, k.scale
		}
	}
	for _, c := range allConfigs {
		opts := runSpec{p.Name(), c, scale, functional}.options()
		allocs, err := exactAllocs(func() error {
			_, err := cppcache.RunProgram(p, cppcache.CacheConfig(c.base), opts)
			return err
		})
		if err != nil {
			return err
		}
		m.set("sim.allocs_per_run."+c.label, allocs, "count")
	}
	return nil
}

// exactAllocs counts the heap allocations of one call of f. Any other
// goroutine's allocation in the window only adds to the count, so the
// least of three measurements is f's own.
func exactAllocs(f func() error) (float64, error) {
	least := math.Inf(1)
	var err error
	for i := 0; i < 3; i++ {
		least = min(least, testing.AllocsPerRun(1, func() {
			if ferr := f(); err == nil {
				err = ferr
			}
		}))
	}
	return least, err
}

// ratios times BC and CPP runs of every program, functional and full,
// in the same process, and reports the CPP/BC host-time ratios, the
// simulated CPP/BC gaps to the paper's averages, and how much of the
// full runs the core-only and hierarchy-only probes leave unexplained.
func ratios(m metrics, progs []progKey, explained time.Duration) error {
	shared, err := sharedPrograms(progs)
	if err != nil {
		return err
	}
	host := map[string]time.Duration{}
	var cycleRatios, trafficRatios []float64
	for _, k := range progs {
		p := shared[k]
		res := map[string]cppcache.Result{}
		for _, functional := range []bool{true, false} {
			for _, cfg := range []string{"BC", "CPP"} {
				t0 := threadCPU()
				r, err := cppcache.RunProgram(p, cppcache.CacheConfig(cfg),
					cppcache.Options{Scale: k.scale, FunctionalOnly: functional})
				if err != nil {
					return err
				}
				mode := "full"
				if functional {
					mode = "functional"
				}
				host[cfg+"/"+mode] += threadCPU() - t0
				res[cfg+"/"+mode] = r
			}
		}
		bc, cpp := res["BC/full"], res["CPP/full"]
		cycleRatios = append(cycleRatios, float64(cpp.Cycles)/float64(bc.Cycles))
		trafficRatios = append(trafficRatios, cpp.MemTrafficWords/bc.MemTrafficWords)
	}
	m.set("ratio.cpp_bc.functional", host["CPP/functional"].Seconds()/host["BC/functional"].Seconds(), "ratio")
	m.set("ratio.cpp_bc.full", host["CPP/full"].Seconds()/host["BC/full"].Seconds(), "ratio")
	m.set("paper_gap_time", math.Abs(geomean(cycleRatios)-paperTimeRatio), "ratio")
	m.set("paper_gap_traffic", math.Abs(geomean(trafficRatios)-paperTrafficRatio), "ratio")
	m.set("sim.unexplained_ms", ms(host["BC/full"]+host["CPP/full"]-explained), "ms")
	return nil
}

// serviceProbeTime is how long the service probe drives the closed loop
// on workloads whose own loop does not go through the service.
const serviceProbeTime = 2 * time.Second

// serviceProbe starts a fresh service stack, runs the service-runs loop
// on it with stage tracing, and reports the service-layer metrics.
func serviceProbe(m metrics, tr *span.Tracer, outDir string, p pins, seed int64) error {
	w := &serviceWorkload{catalog: serviceCatalogue(), pins: p, outDir: outDir, seed: seed}
	if _, err := w.setup(); err != nil {
		return err
	}
	sp := tr.Start("probe.service", nil)
	st, err := w.measure(serviceProbeTime, tr)
	sp.End()
	if err == nil && st.failed > 0 {
		err = fmt.Errorf("service probe: %d failed: %v", st.failed, st.errs)
	}
	if err != nil {
		w.close()
		return err
	}
	records, err := w.stack.drain()
	if err == nil {
		err = serviceMetrics(m, st, records, outDir)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	httpClient.CloseIdleConnections()
	return err
}

// serviceMetrics reduces a traced service loop to the serve, memo and
// ledger metrics, and times direct ledger appends.
func serviceMetrics(m metrics, st *loopStats, records int64, outDir string) error {
	var admission, queue, execute, overhead []float64
	for _, s := range st.stages {
		if s.memoized {
			continue // every stage of a memo hit is zero-width by construction
		}
		admission = append(admission, s.stages["admission"])
		queue = append(queue, s.stages["queue"])
		execute = append(execute, s.stages["execute"])
		overhead = append(overhead, s.ms-s.stages["execute"])
	}
	m.set("serve.admission_ms", median(admission), "ms")
	m.set("serve.queue_ms", median(queue), "ms")
	m.set("serve.execute_ms", median(execute), "ms")
	m.set("serve.overhead_ms", median(overhead), "ms")
	m.set("memo.hit_ratio", float64(len(st.hitMS))/float64(st.completed), "ratio")
	m.set("memo.hit_ms", median(st.hitMS), "ms")
	m.set("ledger.records", float64(records), "count")
	us, err := ledgerAppendUS(outDir)
	if err != nil {
		return err
	}
	m.set("ledger.append_us", us, "us")
	return nil
}

// ledgerAppendUS times direct fsync'd appends to a fresh ledger file.
func ledgerAppendUS(outDir string) (float64, error) {
	dir, err := os.MkdirTemp(outDir, "ledger-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, err := ledger.OpenWriter(filepath.Join(dir, "probe.ledger"))
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 64; i++ {
		rec := ledger.Record{Schema: ledger.SchemaVersion, RunID: i + 1, Workload: "olden.mst",
			Config: "BC", Compressor: "paper", State: "done", Created: time.Now(), Finished: time.Now()}
		t0 := time.Now()
		if err := w.Append(rec); err != nil {
			w.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), w.Close()
}

// sweepProbeReps is how many sweeps the probe sends each way.
const sweepProbeReps = 5

// sweepProbe sends the sweep-fabric sweep alternately to a fabric
// coordinator and to a local-pool server, then places its children one by
// one through the fabric directly, and reports the sweep and fabric
// metrics.
func sweepProbe(m metrics, tr *span.Tracer, p pins, seed int64) (err error) {
	probe := tr.Start("probe.sweep", nil)
	defer probe.End()
	fab, err := startSweepStack(true)
	if err != nil {
		return err
	}
	defer closeInto(fab, &err)
	local, err := startSweepStack(false)
	if err != nil {
		return err
	}
	defer closeInto(local, &err)

	// One untimed sweep each builds the programs and warms connections.
	for _, st := range []*sweepStack{fab, local} {
		if _, err := st.sweep(sweepSpec(), nil); err != nil {
			return err
		}
	}
	placements, retries := fab.fab.Placements(), fab.fab.Retries()
	var fabMS, localMS, overheadMS []float64
	var children int
	for i := 0; i < sweepProbeReps; i++ {
		for _, st := range []*sweepStack{fab, local} {
			res, err := st.sweep(seededSweep(seed, i), probe)
			if err == nil {
				err = p.check(sweepTableKey, tableDigest(res.table))
			}
			if err != nil {
				return err
			}
			if st == local {
				localMS = append(localMS, ms(res.dur))
				continue
			}
			fabMS = append(fabMS, ms(res.dur))
			slowest, err := st.slowestExecute(res)
			if err != nil {
				return err
			}
			overheadMS = append(overheadMS, ms(res.dur)-slowest)
			children = len(res.children)
		}
	}
	m.set("sweep.children", float64(children), "count")
	m.set("sweep.overhead_ms", median(overheadMS), "ms")
	m.set("fabric.attempts", float64(fab.fab.Placements()-placements)/sweepProbeReps, "count")
	m.set("fabric.retries", float64(fab.fab.Retries()-retries), "count")
	m.set("fabric.vs_local", median(localMS)/median(fabMS), "ratio")

	wait, err := pollWait(fab.fab, probe)
	if err != nil {
		return err
	}
	m.set("fabric.poll_wait_ms", wait, "ms")
	return nil
}

// pollWait places each sweep child through the coordinator directly and
// returns the median of coordinator-seen child time minus the worker's
// execute stage: the time the fabric adds by polling.
func pollWait(c *fabric.Coordinator, parent *span.Span) (float64, error) {
	var waits []float64
	for _, s := range directChildren() {
		spec := s.serveSpec()
		hash, err := ledger.SpecHash(spec)
		if err != nil {
			return 0, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return 0, err
		}
		sp := parent.StartChild("fabric.Execute", span.String("run", s.key()))
		t0 := time.Now()
		out, err := c.Execute(context.Background(), hash, body)
		seen := time.Since(t0)
		sp.End()
		if err != nil {
			return 0, err
		}
		if out.State != string(serve.StateDone) {
			return 0, fmt.Errorf("fabric probe %s: state %s: %s", s.key(), out.State, out.Error)
		}
		stages, err := stageMS(out.Worker, out.RunID)
		if err != nil {
			return 0, err
		}
		waits = append(waits, ms(seen)-stages["execute"])
	}
	return median(waits), nil
}

// closeInto closes st and, if nothing failed before, reports its error.
func closeInto(st *sweepStack, err *error) {
	if cerr := st.close(); *err == nil {
		*err = cerr
	}
}
