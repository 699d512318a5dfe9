// Command cppsim runs one benchmark on one cache configuration and prints
// the result.
//
// Usage:
//
//	cppsim -workload olden.health -config CPP [-scale 4] [-halved] [-functional]
//	cppsim -workload mst -config BCC -compressor fpc
//
// Workload names may be abbreviated to any unambiguous suffix: "mst"
// resolves to "olden.mst". -compressor selects the line-compression
// scheme for the configurations that compress bus transfers (BCC, LCC);
// selecting one anywhere else is a usage error. Observability flags stream interval metrics and
// an event trace to files:
//
//	cppsim -workload mst -config cpp -metrics-out m.csv -trace-out t.json -interval 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cppcache"
)

// usageError prints the message followed by flag usage and exits 2, the
// conventional bad-invocation status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cppsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload name or unambiguous suffix (see -list)")
		bench        = flag.String("bench", "", "alias for -workload (kept for compatibility)")
		config       = flag.String("config", "CPP", "cache configuration: BC, BCC, HAC, BCP, CPP, VC or LCC")
		compressor   = flag.String("compressor", "", "line-compression scheme for BCC/LCC: paper (default), cpack, fpc or bdi")
		scale        = flag.Int("scale", 0, "workload scale (0 = default)")
		halved       = flag.Bool("halved", false, "halve the miss penalties (Figure 14 methodology)")
		functional   = flag.Bool("functional", false, "skip the pipeline model (faster; no cycle counts)")
		list         = flag.Bool("list", false, "list benchmarks and exit")

		metricsOut = flag.String("metrics-out", "", "write interval metrics CSV to this file (requires -interval)")
		traceOut   = flag.String("trace-out", "", "write Chrome trace_event JSON to this file")
		interval   = flag.Int64("interval", 0, "metrics snapshot cadence in cycles (ops when -functional)")
		traceCap   = flag.Int("trace-cap", 0, "event-ring capacity (0 = 65536; requires -trace-out)")
		hist       = flag.Bool("hist", false, "print latency histograms (pipeline mode only)")
		attrOut    = flag.String("attr-out", "", "write the PC/region attribution profile (top-N tables + collapsed stacks) to this file")
		attrTop    = flag.Int("attr-top", 10, "rows per attribution top-N table (requires -attr-out)")
	)
	flag.Parse()

	if *list {
		for _, info := range cppcache.BenchmarkInfos() {
			fmt.Printf("%-22s %-9s %s\n", info.Name, info.Suite, info.Description)
		}
		return
	}

	if flag.NArg() > 0 {
		usageError("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *workloadFlag != "" && *bench != "" && *workloadFlag != *bench {
		usageError("-workload %q and -bench %q disagree; use one", *workloadFlag, *bench)
	}
	name := *workloadFlag
	if name == "" {
		name = *bench
	}
	if name == "" {
		name = "olden.health"
	}
	resolved, err := cppcache.ResolveBenchmark(name)
	if err != nil {
		usageError("%v (run -list for the full set)", err)
	}

	cfg, ok := cppcache.KnownConfig(*config)
	if !ok {
		usageError("unknown configuration %q (known: BC, BCC, HAC, BCP, CPP, VC, LCC)", *config)
	}
	scheme := *compressor
	if scheme != "" {
		canonical, ok := cppcache.KnownCompressor(scheme)
		if !ok {
			usageError("unknown compressor %q (known: %s)", scheme, strings.Join(cppcache.Compressors(), ", "))
		}
		if err := cppcache.ValidateCompressor(cfg, canonical); err != nil {
			usageError("%v", err)
		}
		scheme = canonical
	}

	if *metricsOut != "" && *interval <= 0 {
		usageError("-metrics-out requires -interval > 0 (the snapshot cadence)")
	}
	if *interval < 0 {
		usageError("-interval must be positive (got %d)", *interval)
	}
	if *interval > 0 && *metricsOut == "" {
		usageError("-interval without -metrics-out would collect metrics nobody reads; add -metrics-out FILE")
	}
	if *traceCap != 0 && *traceOut == "" {
		usageError("-trace-cap requires -trace-out")
	}
	if *traceCap < 0 {
		usageError("-trace-cap must be positive (got %d)", *traceCap)
	}
	if *hist && *functional {
		usageError("-hist needs the pipeline model; drop -functional")
	}
	if *attrTop != 10 && *attrOut == "" {
		usageError("-attr-top requires -attr-out")
	}
	if *attrTop <= 0 {
		usageError("-attr-top must be positive (got %d)", *attrTop)
	}

	opts := cppcache.Options{
		Scale:            *scale,
		HalveMissPenalty: *halved,
		FunctionalOnly:   *functional,
		Compressor:       scheme,
	}
	if *metricsOut != "" || *traceOut != "" || *hist || *attrOut != "" {
		opts.Observe = cppcache.NewObservation(cppcache.ObserveOptions{
			IntervalCycles: *interval,
			Trace:          *traceOut != "",
			TraceCap:       *traceCap,
			Attr:           *attrOut != "",
		})
	}
	res, err := cppcache.Run(resolved, cfg, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppsim:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("configuration    %s\n", res.Config)
	if res.Compressor != cppcache.DefaultCompressor() {
		// Only non-default schemes earn a line: default output stays
		// byte-identical to the pre-zoo simulator.
		fmt.Printf("compressor       %s\n", res.Compressor)
	}
	if !*functional {
		fmt.Printf("cycles           %d\n", res.Cycles)
		fmt.Printf("instructions     %d\n", res.Instructions)
		fmt.Printf("IPC              %.3f\n", res.IPC)
	}
	fmt.Printf("L1 accesses      %d\n", res.L1Accesses)
	fmt.Printf("L1 misses        %d (%.2f%%)\n", res.L1Misses, 100*res.L1MissRate())
	fmt.Printf("L2 accesses      %d\n", res.L2Accesses)
	fmt.Printf("L2 misses        %d (%.2f%%)\n", res.L2Misses, 100*res.L2MissRate())
	fmt.Printf("memory traffic   %.1f words\n", res.MemTrafficWords)
	if res.Config == cppcache.CPP {
		fmt.Printf("affiliated hits  L1=%d L2=%d\n", res.AffiliatedHitsL1, res.AffiliatedHitsL2)
		fmt.Printf("promotions       %d\n", res.Promotions)
		fmt.Printf("words prefetched %d\n", res.AffWordsPrefetched)
	}
	if res.Config == cppcache.BCP {
		fmt.Printf("buffer hits      L1=%d L2=%d\n", res.PrefetchBufferHitsL1, res.PrefetchBufferHitsL2)
	}
	if !*functional {
		fmt.Printf("mispredicts      %d\n", res.Mispredicts)
		fmt.Printf("ready queue/miss %.2f\n", res.AvgReadyQueueInMiss)
	}

	if ob := opts.Observe; ob != nil {
		if *metricsOut != "" {
			csv := ob.MetricsCSV()
			if d := ob.TraceDropped(); d > 0 {
				// Trailing comment so a truncated event trace is visible to
				// anyone reading the metrics file, not only the trace JSON.
				csv += fmt.Sprintf("# trace_dropped %d\n", d)
			}
			if err := os.WriteFile(*metricsOut, []byte(csv), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cppsim: write metrics:", err)
				os.Exit(1)
			}
			fmt.Printf("metrics          %s (%d intervals of %d)\n", *metricsOut, ob.Intervals(), *interval)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, ob.ChromeTrace(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cppsim: write trace:", err)
				os.Exit(1)
			}
			fmt.Printf("trace            %s (%d events dropped)\n", *traceOut, ob.TraceDropped())
		}
		if *attrOut != "" {
			profile := ob.AttrText(*attrTop) + "\ncollapsed stacks:\n" + ob.AttrCollapsed()
			if err := os.WriteFile(*attrOut, []byte(profile), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cppsim: write attribution profile:", err)
				os.Exit(1)
			}
			fmt.Printf("attribution      %s\n", *attrOut)
		}
		if *hist {
			fmt.Print(ob.HistogramsText())
		}
		if d := ob.TraceDropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "cppsim: warning: event ring overflowed, %d oldest events dropped (raise -trace-cap)\n", d)
		}
	}
}
