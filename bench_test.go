package cppcache

// The benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation (§4), plus the ablations DESIGN.md calls out. Each
// benchmark regenerates its figure at a reduced scale and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation. cmd/cppbench runs the same experiments
// at full scale with complete per-benchmark tables.

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchScale keeps the per-figure benchmarks fast; cmd/cppbench uses the
// full default scale.
const benchScale = 1

func reportGeomeans(b *testing.B, t *Table, metric string) {
	b.Helper()
	row := "geomean"
	found := false
	for _, r := range t.Rows {
		if r == row {
			found = true
			break
		}
	}
	if !found {
		return
	}
	for _, col := range t.Cols {
		b.ReportMetric(t.Get(row, col), col+"_"+metric)
	}
}

// warmPrograms builds the benchmark traces once, outside the timed region,
// so the Figure benchmarks measure simulation rather than workload
// construction. Programs are shared via the workload build cache, so the
// NewSuite calls inside the timed loops reuse these instances.
func warmPrograms(b *testing.B, names []string) {
	b.Helper()
	if names == nil {
		names = Benchmarks()
	}
	for _, n := range names {
		if _, err := BuildBenchmark(n, benchScale); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
}

func BenchmarkFig03Compressibility(b *testing.B) {
	b.ReportAllocs()
	warmPrograms(b, nil)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale})
		t, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var small, ptr float64
			for _, r := range t.Rows {
				small += t.Get(r, "small")
				ptr += t.Get(r, "pointer")
			}
			n := float64(len(t.Rows))
			b.ReportMetric((small+ptr)/n, "avg_compressible")
		}
	}
}

func BenchmarkFig09BaselineSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if BaselineDescription() == "" {
			b.Fatal("empty baseline description")
		}
	}
}

func BenchmarkFig10MemoryTraffic(b *testing.B) {
	b.ReportAllocs()
	warmPrograms(b, nil)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale})
		t, err := s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportGeomeans(b, t, "traffic")
		}
	}
}

func BenchmarkFig11ExecutionTime(b *testing.B) {
	b.ReportAllocs()
	warmPrograms(b, nil)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale})
		t, err := s.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportGeomeans(b, t, "exectime")
		}
	}
}

func BenchmarkFig12L1Misses(b *testing.B) {
	b.ReportAllocs()
	warmPrograms(b, nil)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale})
		t, err := s.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportGeomeans(b, t, "l1miss")
		}
	}
}

func BenchmarkFig13L2Misses(b *testing.B) {
	b.ReportAllocs()
	warmPrograms(b, nil)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale})
		t, err := s.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportGeomeans(b, t, "l2miss")
		}
	}
}

func BenchmarkFig14MissImportance(b *testing.B) {
	b.ReportAllocs()
	// Restrict to a representative subset: Figure 14 needs two full runs
	// per benchmark x configuration.
	benches := []string{"olden.health", "olden.treeadd", "spec2000.300.twolf"}
	warmPrograms(b, benches)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale, Benchmarks: benches})
		t, err := s.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportGeomeans(b, t, "importance")
		}
	}
}

func BenchmarkFig15ReadyQueue(b *testing.B) {
	benches := []string{"olden.health", "olden.treeadd", "spec95.130.li"}
	b.ReportAllocs()
	warmPrograms(b, benches)
	for i := 0; i < b.N; i++ {
		s := NewSuite(SuiteOptions{Scale: benchScale, Benchmarks: benches})
		t, err := s.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var inc float64
			for _, r := range t.Rows {
				inc += t.Get(r, "increase")
			}
			b.ReportMetric(inc/float64(len(t.Rows)), "avg_queue_increase")
		}
	}
}

// BenchmarkAblationMask sweeps the affiliated-line mask: 0x1 is the
// paper's next-line pairing; larger masks pair more distant lines
// (stride-prefetch analogues).
func BenchmarkAblationMask(b *testing.B) {
	for _, mask := range []uint32{0x1, 0x2, 0x4} {
		b.Run(fmt.Sprintf("mask_%#x", mask), func(b *testing.B) {
			warmPrograms(b, []string{"olden.treeadd"})
			for i := 0; i < b.N; i++ {
				res, err := RunCPPVariant("olden.treeadd", mask, true, Options{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Cycles), "cycles")
					b.ReportMetric(float64(res.AffiliatedHitsL1), "aff_hits")
				}
			}
		})
	}
}

// BenchmarkAblationVictim quantifies the victim-placement path (§3.3):
// salvaging evicted lines into their affiliated place.
func BenchmarkAblationVictim(b *testing.B) {
	for _, vp := range []bool{true, false} {
		b.Run(fmt.Sprintf("victimPlacement_%v", vp), func(b *testing.B) {
			warmPrograms(b, []string{"spec2000.300.twolf"})
			for i := 0; i < b.N; i++ {
				res, err := RunCPPVariant("spec2000.300.twolf", 0x1, vp, Options{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Cycles), "cycles")
					b.ReportMetric(float64(res.L1Misses), "l1_misses")
				}
			}
		})
	}
}

// BenchmarkAblationWidth sweeps the compressed-word width: what fraction
// of dynamically accessed values would be compressible if the scheme kept
// 7, 15 (the paper's choice) or 23 low-order bits.
func BenchmarkAblationWidth(b *testing.B) {
	for _, width := range []int{7, 15, 23} {
		b.Run(fmt.Sprintf("payload_%d", width), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			vals := make([]uint32, 4096)
			addrs := make([]uint32, 4096)
			for i := range vals {
				// A realistic mix: thirds of small values, pointers
				// and random words.
				addrs[i] = rng.Uint32() &^ 3
				switch i % 3 {
				case 0:
					vals[i] = uint32(rng.Intn(1 << 14))
				case 1:
					vals[i] = addrs[i]&^0x7FFF | uint32(rng.Intn(1<<15))&^3
				default:
					vals[i] = rng.Uint32()
				}
			}
			comp := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if CompressibleWordWidth(vals[i%4096], addrs[i%4096], width) {
					comp++
				}
			}
			b.ReportMetric(float64(comp)/float64(b.N), "compressible_frac")
		})
	}
}

// BenchmarkCompressionKernel measures the raw software compressor.
func BenchmarkCompressionKernel(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint32, 1024)
	addrs := make([]uint32, 1024)
	for i := range vals {
		vals[i] = rng.Uint32()
		addrs[i] = rng.Uint32() &^ 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, ok := CompressWord(vals[i%1024], addrs[i%1024]); ok {
			_ = DecompressWord(c, addrs[i%1024])
		}
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulation speed
// (instructions per wall-clock second) on the CPP configuration. With no
// recorder attached this is also the observability-off guard: the obs
// hooks must stay within noise of the pre-observability baseline
// (BENCH_simperf.json; cmd/cppbench -against compares runs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	p, err := BuildBenchmark("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgram(p, CPP, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Len()), "insts/run")
}

// BenchmarkSimulatorThroughputObserved is the same run with the full
// observability stack attached (interval metrics + event trace), putting a
// number on what turning observability ON costs.
func BenchmarkSimulatorThroughputObserved(b *testing.B) {
	b.ReportAllocs()
	p, err := BuildBenchmark("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	oo := ObserveOptions{IntervalCycles: 10000, Trace: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob := NewObservation(oo)
		_, err := RunProgram(p, CPP, Options{Observe: ob})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(ob.Intervals()), "intervals")
		}
	}
	b.ReportMetric(float64(p.Len()), "insts/run")
}
