// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time from a single process, checks every
// output against digests pinned in pinned.json, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload figures-pipeline --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the loop
// untraced for half the time and traced for the other half, then runs the
// per-layer probes, writes the spans as a Chrome trace under --out, and
// reports the per-layer metrics. --pin recomputes pinned.json from direct
// simulator runs. NOTES.md says why each workload exists and which layer
// metric should move which end-to-end metric.
//
// The exit code is 0 when every output matched its pinned digest, 1 when
// any did not or the run failed, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cppcache/internal/compress"
	"cppcache/internal/span"
)

// benchWorkload is one traffic mix of the benchmark.
type benchWorkload interface {
	// setup builds the inputs and starts any servers, setupReps times,
	// and returns the median set-up time (CPU time of the calling thread).
	setup() (time.Duration, error)
	// measure drives the workload for about d; with a tracer it records
	// spans around every call it makes.
	measure(d time.Duration, tr *span.Tracer) (*loopStats, error)
	// probe runs the per-layer probes. traced is the traced loop's
	// statistics.
	probe(m metrics, tr *span.Tracer, traced *loopStats) error
	close() error
}

// workloadNames lists every workload the command runs. BENCHMARK.json
// names the ones steady enough to gate on; NOTES.md says why the others
// are not among them.
var workloadNames = []string{"figures-pipeline", "functional-zoo", "service-runs", "sweep-fabric"}

func newWorkload(name string, seed int64, p pins, outDir string) (benchWorkload, error) {
	switch name {
	case "figures-pipeline", "functional-zoo":
		w := figuresPipeline()
		if name == "functional-zoo" {
			w = functionalZoo()
		}
		w.seed, w.pins, w.outDir = seed, p, outDir
		return w, nil
	case "service-runs":
		return &serviceWorkload{catalog: serviceCatalogue(), seed: seed, pins: p, outDir: outDir}, nil
	case "sweep-fabric":
		return &sweepWorkload{seed: seed, pins: p, outDir: outDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// endToEndNames are the metrics an untraced run reports.
var endToEndNames = []string{
	"latency_ms_p50", "latency_ms_p90", "requests_per_s", "sim_minst_per_s", "setup_s", "max_rss_mb",
}

// perLayerNames are the metrics a traced run reports, on every workload.
func perLayerNames() []string {
	names := []string{
		"workload.build_ms", "trace.decode_ns_per_inst", "trace.bytes_per_inst",
		"cpu.ns_per_inst", "cpu.insts", "cpu.cycles", "core.ns_per_access",
		"hier.accesses", "hier.l1_misses", "mem.traffic_words", "core.aff_hits",
		"ratio.cpp_bc.functional", "ratio.cpp_bc.full", "sim.unexplained_ms",
		"paper_gap_time", "paper_gap_traffic",
		"serve.admission_ms", "serve.queue_ms", "serve.execute_ms", "serve.overhead_ms",
		"memo.hit_ratio", "memo.hit_ms", "ledger.append_us", "ledger.records",
		"sweep.children", "sweep.overhead_ms",
		"fabric.attempts", "fabric.retries", "fabric.poll_wait_ms", "fabric.vs_local",
		"trace.overhead_pct", "error_rate", "latency.samples",
	}
	for _, c := range allConfigs {
		names = append(names, "sim.construct_us."+c.label, "sim.construct_allocs."+c.label,
			"sim.allocs_per_run."+c.label)
		if c.label != "CPP" {
			names = append(names, "hier.ns_per_access."+c.label)
		}
	}
	for _, s := range compress.Schemes() {
		names = append(names, "compress.ns_per_line."+s, "compress.halves_per_line."+s)
	}
	return names
}

// sameNames reports an error unless m holds exactly the named metrics.
func sameNames(m metrics, names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		if _, ok := m[n]; !ok {
			return fmt.Errorf("metric %s not measured", n)
		}
	}
	for n := range m {
		if !want[n] {
			return fmt.Errorf("metric %s measured but not declared", n)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: one of figures-pipeline, functional-zoo, service-runs, sweep-fabric")
	seed := fs.Int64("seed", 1, "seed for the run order and the service request mix")
	seconds := fs.Int("seconds", 20, "how long the loop measures")
	traced := fs.Int("trace", 0, "1 runs the traced half, the layer probes and the span dump, and reports per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span dumps and temporary ledgers")
	pin := fs.String("pin", "", "recompute the pinned digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*pin == "" && (*seconds < 1 || (*traced != 0 && *traced != 1))) {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *pin != "" {
		if err := pinAll(*pin); err != nil {
			fmt.Fprintln(stderr, "perfbench: pin:", err)
			return 1
		}
		return 0
	}
	p, err := loadPins(pinnedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Set-up and the simulator loops time themselves by this thread's CPU
	// time (see threadCPU), so the goroutine that runs them keeps its thread.
	runtime.LockOSThread()
	w, err := newWorkload(*name, *seed, p, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := execute(w, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outDir, stderr)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shutdown: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	names := endToEndNames
	if *traced == 1 {
		names = perLayerNames()
	}
	if err := sameNames(rep.Metrics, names); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: a metric is not a finite number: %v\n", *name, rep.Metrics)
			return 1
		}
	}
	printSummary(stderr, *name, rep)
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up, measures it and reduces the result.
func execute(w benchWorkload, name string, seed int64, d time.Duration, traced bool, outDir string, stderr io.Writer) (report, error) {
	setup, err := w.setup()
	if err != nil {
		return report{}, fmt.Errorf("setup: %w", err)
	}
	// Each measured loop starts from a collected heap: set-up garbage is
	// not the loop's to pay for.
	runtime.GC()
	m := metrics{}
	if !traced {
		st, err := w.measure(d, nil)
		if err != nil {
			return report{}, err
		}
		logLoop(stderr, "measured", st)
		if err := endToEnd(m, st, setup); err != nil {
			return report{}, err
		}
		return report{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
	}

	plain, err := w.measure(d/2, nil)
	if err != nil {
		return report{}, err
	}
	logLoop(stderr, "untraced half", plain)
	runtime.GC()
	tr := span.New(1 << 17)
	st, err := w.measure(d/2, tr)
	if err != nil {
		return report{}, err
	}
	logLoop(stderr, "traced half", st)
	if err := w.probe(m, tr, st); err != nil {
		return report{}, fmt.Errorf("probes: %w", err)
	}
	// Tracing overhead: the drop in completed operations per second.
	m.set("trace.overhead_pct", (rate(plain)/rate(st)-1)*100, "%")
	m.set("latency.samples", float64(len(st.latMS)), "count")
	attempted, failed := plain.attempted+st.attempted, plain.failed+st.failed
	m.set("error_rate", float64(failed)/float64(attempted), "ratio")
	dump := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := os.WriteFile(dump, tr.Chrome(), 0o644); err != nil {
		return report{}, err
	}
	fmt.Fprintf(stderr, "perfbench: span dump (Chrome trace_event JSON): %s (%d spans, %d dropped)\n",
		dump, tr.Len(), tr.Dropped())
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func rate(st *loopStats) float64 { return float64(st.completed) / st.elapsed.Seconds() }

// endToEnd reduces a measured loop to the end-to-end metrics.
func endToEnd(m metrics, st *loopStats, setup time.Duration) error {
	for _, p := range []float64{50, 90} {
		q, err := percentile(st.latMS, p)
		if err != nil {
			return fmt.Errorf("latency: %w", err)
		}
		m.set(fmt.Sprintf("latency_ms_p%g", p), q.Value, "ms")
	}
	m.set("requests_per_s", rate(st), "1/s")
	m.set("sim_minst_per_s", float64(st.simInsts)/st.elapsed.Seconds()/1e6, "Minst/s")
	m.set("setup_s", setup.Seconds(), "s")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func logLoop(w io.Writer, what string, st *loopStats) {
	fmt.Fprintf(w, "perfbench: %s: %v\n", what, st)
	for _, e := range st.errs {
		fmt.Fprintf(w, "perfbench:   failure: %s\n", e)
	}
}

func printSummary(w io.Writer, name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %s: correct=%v attempted=%d failed=%d error_rate=%g\n",
		name, rep.Correct, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
