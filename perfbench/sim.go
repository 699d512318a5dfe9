package main

import (
	"fmt"
	"runtime"
	"time"

	"cppcache"
	"cppcache/internal/ledger"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/trace"
	"cppcache/internal/workload"
)

// simConfig is one cache configuration as the benchmark names it.
type simConfig struct {
	label  string // the name used in metric names and run keys
	base   string // the cppcache configuration
	scheme string // line-compression scheme; "" is the paper's
}

// simName is the configuration name sim.NewSystem understands.
func (c simConfig) simName() string {
	if c.scheme == "" {
		return c.base
	}
	return sim.WithCompressor(c.base, c.scheme)
}

// allConfigs is every configuration the layer probes cover: the paper's
// five and the compressor zoo on BCC ("BCC" itself is BCC@paper).
var allConfigs = []simConfig{
	{"BC", "BC", ""},
	{"BCC", "BCC", ""},
	{"BCC-cpack", "BCC", "cpack"},
	{"BCC-fpc", "BCC", "fpc"},
	{"BCC-bdi", "BCC", "bdi"},
	{"HAC", "HAC", ""},
	{"BCP", "BCP", ""},
	{"CPP", "CPP", ""},
}

func configByLabel(label string) simConfig {
	for _, c := range allConfigs {
		if c.label == label {
			return c
		}
	}
	panic("perfbench: unknown configuration label " + label)
}

// progKey names one built program.
type progKey struct {
	bench string
	scale int
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// buildSample is one from-scratch build and pre-decode of a program set.
type buildSample struct {
	build, decode time.Duration
	insts, bytes  int64
}

// buildFresh builds and pre-decodes every program from scratch,
// bypassing the process-wide program cache, and times both steps by the
// calling thread's CPU time.
func buildFresh(progs []progKey) (buildSample, error) {
	var s buildSample
	for _, k := range progs {
		bm, err := workload.ByName(k.bench)
		if err != nil {
			return s, err
		}
		t0 := threadCPU()
		p := bm.Build(k.scale)
		t1 := threadCPU()
		d := trace.NewDecoded(p.Insts())
		s.build += t1 - t0
		s.decode += threadCPU() - t1
		s.insts += int64(d.Len())
		s.bytes += d.Bytes()
	}
	return s, nil
}

// sharedPrograms returns the programs the runs use, from the
// process-wide cache every public entry point draws on.
func sharedPrograms(progs []progKey) (map[progKey]*cppcache.Program, error) {
	out := map[progKey]*cppcache.Program{}
	for _, k := range progs {
		p, err := cppcache.BuildBenchmark(k.bench, k.scale)
		if err != nil {
			return nil, err
		}
		out[k] = p
	}
	return out, nil
}

// simWorkload runs a matrix of direct cppcache.RunProgram calls from one
// goroutine: every pass visits every cell once, in seeded order.
type simWorkload struct {
	name  string
	specs []runSpec
	progs []progKey

	seed   int64
	pins   pins
	outDir string
	shared map[progKey]*cppcache.Program
	builds []buildSample
}

func newSimWorkload(name string, scale int, functional bool, labels []string) *simWorkload {
	w := &simWorkload{name: name}
	for _, bench := range cppcache.Benchmarks() {
		w.progs = append(w.progs, progKey{bench, scale})
		for _, l := range labels {
			w.specs = append(w.specs, runSpec{bench, configByLabel(l), scale, functional})
		}
	}
	return w
}

// figuresPipeline is the paper's evaluation matrix: 14 benchmarks x the
// five configurations, full out-of-order pipeline, scale 1.
func figuresPipeline() *simWorkload {
	return newSimWorkload("figures-pipeline", 1, false, []string{"BC", "BCC", "HAC", "BCP", "CPP"})
}

// functionalZoo is 14 benchmarks x BC, the four BCC compressors and CPP,
// functional mode, at the experiment default scale 4.
func functionalZoo() *simWorkload {
	return newSimWorkload("functional-zoo", 4, true,
		[]string{"BC", "BCC", "BCC-cpack", "BCC-fpc", "BCC-bdi", "CPP"})
}

// repeatSetup runs a workload's set-up setupReps times: a from-scratch
// build of progs, then start (if any). It returns the median CPU time of
// the repetitions. stop, untimed, tears the previous repetition down; the
// heap is collected after each one, so none pays for another's garbage.
func repeatSetup(progs []progKey, start, stop func() error) (time.Duration, []buildSample, error) {
	var times []float64
	var builds []buildSample
	for i := 0; i < setupReps; i++ {
		if i > 0 && stop != nil {
			if err := stop(); err != nil {
				return 0, nil, err
			}
		}
		t0 := threadCPU()
		s, err := buildFresh(progs)
		if err == nil && start != nil {
			err = start()
		}
		if err != nil {
			return 0, nil, err
		}
		times = append(times, (threadCPU() - t0).Seconds())
		builds = append(builds, s)
		runtime.GC()
	}
	return secs(median(times)), builds, nil
}

func (w *simWorkload) setup() (time.Duration, error) {
	setup, builds, err := repeatSetup(w.progs, nil, nil)
	if err != nil {
		return 0, err
	}
	w.builds = builds
	if w.shared, err = sharedPrograms(w.progs); err != nil {
		return 0, err
	}
	// One functional BC run per program fills the shared pre-decoded
	// trace before timing starts, as a long-lived caller would have it.
	for k, p := range w.shared {
		if _, err := cppcache.RunProgram(p, "BC", cppcache.Options{Scale: k.scale, FunctionalOnly: true}); err != nil {
			return 0, err
		}
	}
	return setup, nil
}

func (w *simWorkload) measure(d time.Duration, tr *span.Tracer) (*loopStats, error) {
	// Each run is timed by the CPU time of this thread (see threadCPU), and
	// the loop's measured time is their sum.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	st := &loopStats{}
	start := time.Now()
	for pass := 0; ; pass++ {
		// Whole passes only, so every run measures the same mix; the pass
		// count rounds to the nearest whole number that fits in d.
		if elapsed := time.Since(start); pass > 0 && elapsed+elapsed/time.Duration(2*pass) >= d {
			break
		}
		for _, i := range passOrder(w.seed, pass, len(w.specs)) {
			s := w.specs[i]
			p := w.shared[progKey{s.bench, s.scale}]
			sp := tr.Start("cppcache.RunProgram", nil, span.String("run", s.key()))
			c0 := threadCPU()
			r, err := cppcache.RunProgram(p, cppcache.CacheConfig(s.config.base), s.options())
			dt := threadCPU() - c0
			sp.End()
			st.elapsed += dt
			st.attempted++
			if err == nil {
				err = w.checkResult(s, r)
			}
			if err != nil {
				st.fail(err)
				continue
			}
			st.done(dt, simInsts(s, r, p))
		}
	}
	return st, nil
}

func (w *simWorkload) checkResult(s runSpec, r cppcache.Result) error {
	d, err := ledger.ResultDigest(r)
	if err != nil {
		return err
	}
	return w.pins.check(s.key(), d)
}

// simInsts is the simulated work of one run: retired instructions, or for
// a functional run (which has no core) the trace's instruction count.
func simInsts(s runSpec, r cppcache.Result, p *cppcache.Program) int64 {
	if s.functional {
		return int64(p.Len())
	}
	return r.Instructions
}

func (w *simWorkload) probe(m metrics, tr *span.Tracer, _ *loopStats) error {
	if err := simProbes(m, tr, w.progs, w.specs[0].functional, w.builds); err != nil {
		return err
	}
	if err := serviceProbe(m, tr, w.outDir, w.pins, w.seed); err != nil {
		return err
	}
	return sweepProbe(m, tr, w.pins, w.seed)
}

func (w *simWorkload) close() error { return nil }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loopStats is what one measured loop completed.
type loopStats struct {
	latMS     []float64 // per completed operation
	simInsts  int64     // simulated instructions of completed operations
	completed int64
	attempted int64
	failed    int64
	errs      []string
	elapsed   time.Duration

	// Service detail, filled by the service loop.
	hitMS  []float64     // latency of memo-hit requests
	stages []stageSample // traced loops only
}

func (st *loopStats) done(d time.Duration, insts int64) {
	st.latMS = append(st.latMS, ms(d))
	st.simInsts += insts
	st.completed++
}

func (st *loopStats) fail(err error) {
	st.failed++
	if len(st.errs) < 10 {
		st.errs = append(st.errs, err.Error())
	}
}

// merge adds o's samples and counts to st (elapsed is the caller's).
func (st *loopStats) merge(o *loopStats) {
	st.latMS = append(st.latMS, o.latMS...)
	st.simInsts += o.simInsts
	st.completed += o.completed
	st.attempted += o.attempted
	st.failed += o.failed
	for _, e := range o.errs {
		if len(st.errs) < 10 {
			st.errs = append(st.errs, e)
		}
	}
	st.hitMS = append(st.hitMS, o.hitMS...)
	st.stages = append(st.stages, o.stages...)
}

func (st *loopStats) String() string {
	return fmt.Sprintf("%d completed, %d attempted, %d failed in %v", st.completed, st.attempted, st.failed, st.elapsed)
}
