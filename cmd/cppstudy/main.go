// Command cppstudy reproduces the value-compressibility study (Figure 3)
// and, optionally, the compression-width ablation.
//
// Usage:
//
//	cppstudy [-scale 4] [-widths]
//
// Phase-plot mode instead runs one workload on several configurations
// with interval metrics attached and prints per-phase behaviour plus a
// difference table (last configuration minus first):
//
//	cppstudy -phase olden.mst -configs BC,CPP -interval 10000 [-out prefix]
//
// Compressor-zoo mode compares the registered line-compression schemes:
// every workload runs on BCC under each scheme (functional mode), and the
// table reports off-chip traffic as a ratio to the uncompressed BC
// baseline (lower is better), with per-scheme gate-delay figures:
//
//	cppstudy -compressors [-scale 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cppcache"
	"cppcache/internal/compress"
	"cppcache/internal/isa"
	"cppcache/internal/obs"
	"cppcache/internal/sim"
	"cppcache/internal/stats"
	"cppcache/internal/workload"
)

// phaseCols are the derived per-interval metrics the phase table shows.
var phaseCols = []string{"ipc", "l1_miss_rate", "traffic_words", "comp_ratio", "prefetch_hit_rate"}

// phaseTable renders one observed run's snapshots as a table with one row
// per interval ordinal, so tables from different configurations share row
// names and can be diffed.
func phaseTable(config string, snaps []obs.Snapshot) *stats.Table {
	rows := make([]string, len(snaps))
	for i := range snaps {
		rows[i] = fmt.Sprintf("interval-%03d", i)
	}
	t := stats.NewTable(config, rows, phaseCols)
	for i, s := range snaps {
		t.Set(rows[i], "ipc", s.IPC())
		t.Set(rows[i], "l1_miss_rate", s.L1MissRate())
		t.Set(rows[i], "traffic_words", s.TrafficWords())
		t.Set(rows[i], "comp_ratio", s.CompRatio())
		t.Set(rows[i], "prefetch_hit_rate", s.PrefetchHitRate())
	}
	return t
}

// runPhase executes the phase-plot mode and returns an exit status.
func runPhase(bench string, configs []string, interval int64, scale int, outPrefix string) int {
	if interval <= 0 {
		fmt.Fprintln(os.Stderr, "cppstudy: -phase requires -interval > 0")
		return 2
	}
	if len(configs) < 1 {
		fmt.Fprintln(os.Stderr, "cppstudy: -configs must name at least one configuration")
		return 2
	}
	sc := scale
	if sc == 0 {
		sc = workload.DefaultScale
	}
	p, err := workload.BuildShared(bench, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppstudy:", err)
		return 1
	}
	tables := make([]*stats.Table, 0, len(configs))
	for _, cfg := range configs {
		rec := obs.New(obs.Config{Interval: interval})
		r, err := sim.Run(p, cfg, sim.Options{Rec: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppstudy:", err)
			return 1
		}
		snaps := rec.Snapshots()
		fmt.Printf("%s on %s: %d cycles, %d intervals of %d\n",
			r.Benchmark, r.Config, r.CPU.Cycles, len(snaps), interval)
		t := phaseTable(cfg, snaps)
		tables = append(tables, t)
		if outPrefix != "" {
			name := fmt.Sprintf("%s-%s.csv", outPrefix, strings.ToLower(cfg))
			if err := os.WriteFile(name, []byte(rec.MetricsCSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cppstudy:", err)
				return 1
			}
			fmt.Printf("  wrote %s\n", name)
		}
	}
	fmt.Println()
	for _, t := range tables {
		fmt.Println(t)
	}
	if len(tables) >= 2 {
		d := tables[len(tables)-1].Diff(tables[0])
		d.Note = "per-interval difference over the intervals both runs reached"
		fmt.Println(d)
	}
	return 0
}

// runCompressors executes the compressor-zoo comparison and returns an
// exit status: one BCC run per workload x scheme (functional mode — the
// schemes share miss behaviour and differ only in bus traffic), reported
// as traffic ratios to the uncompressed BC baseline. Workload rows fan
// out over the scheduler's workers; the table is identical for any
// worker count.
func runCompressors(scale, workers int) int {
	g, err := cppcache.SchemeTraffic(scale, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppstudy:", err)
		return 1
	}
	fmt.Println(g)

	fmt.Println("combinational gate depth per scheme:")
	fmt.Printf("%-8s %12s %12s\n", "scheme", "compress", "decompress")
	for _, scheme := range cppcache.Compressors() {
		c, d, err := cppcache.CompressorDelays(scheme)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppstudy:", err)
			return 1
		}
		fmt.Printf("%-8s %11dg %11dg\n", scheme, c, d)
	}
	return 0
}

func main() {
	var (
		scale  = flag.Int("scale", 0, "workload scale (0 = default)")
		widths = flag.Bool("widths", false, "also sweep the compressed-word width")

		phase    = flag.String("phase", "", "phase-plot mode: run this workload with interval metrics")
		configs  = flag.String("configs", "BC,CPP", "comma-separated configurations for -phase")
		interval = flag.Int64("interval", 10000, "snapshot cadence in cycles for -phase")
		out      = flag.String("out", "", "prefix for per-config interval CSVs written by -phase")

		compressors = flag.Bool("compressors", false, "compressor-zoo mode: compare schemes' BCC traffic across all workloads")

		parallel = flag.Int("parallel", 0, "simulation workers for sweeps (0 = one per CPU)")
	)
	flag.Parse()

	if *phase != "" {
		os.Exit(runPhase(*phase, strings.Split(*configs, ","), *interval, *scale, *out))
	}
	if *compressors {
		os.Exit(runCompressors(*scale, *parallel))
	}

	s := cppcache.NewSuite(cppcache.SuiteOptions{Scale: *scale, Workers: *parallel})
	t, err := s.Figure3()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppstudy:", err)
		os.Exit(1)
	}
	fmt.Println(t)

	var avg float64
	for _, r := range t.Rows {
		avg += t.Get(r, "small") + t.Get(r, "pointer")
	}
	fmt.Printf("average compressible: %.1f%% (paper: 59%%)\n\n", 100*avg/float64(len(t.Rows)))

	if !*widths {
		return
	}
	sc := *scale
	if sc == 0 {
		sc = workload.DefaultScale
	}
	fmt.Println("compression-width ablation (fraction compressible per payload width):")
	fmt.Printf("%-22s %8s %8s %8s %8s\n", "benchmark", "7b", "11b", "15b", "23b")
	for _, bm := range workload.All() {
		p := bm.Build(sc)
		var tot float64
		counts := map[int]float64{}
		st := p.Stream()
		for {
			in, ok := st.Next()
			if !ok {
				break
			}
			if !in.Op.IsMem() {
				continue
			}
			tot++
			for _, w := range []int{7, 11, 15, 23} {
				if compress.CompressibleWidth(in.Value, in.Addr, w) {
					counts[w]++
				}
			}
		}
		_ = isa.OpLoad
		fmt.Printf("%-22s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", bm.Name,
			100*counts[7]/tot, 100*counts[11]/tot, 100*counts[15]/tot, 100*counts[23]/tot)
	}
}
