package cppcache

import (
	"bytes"
	"strings"
	"testing"

	"cppcache/internal/ledger"
)

func TestConfigsAndBenchmarks(t *testing.T) {
	if got := Configs(); len(got) != 5 || got[0] != BC || got[4] != CPP {
		t.Errorf("Configs() = %v", got)
	}
	if got := Benchmarks(); len(got) != 14 {
		t.Errorf("Benchmarks() = %d entries", len(got))
	}
	infos := BenchmarkInfos()
	if len(infos) != 14 {
		t.Fatalf("BenchmarkInfos() = %d entries", len(infos))
	}
	for _, info := range infos {
		if info.Substitution == "" || info.Description == "" {
			t.Errorf("%s: missing documentation", info.Name)
		}
	}
}

func TestRunSmallBenchmark(t *testing.T) {
	for _, cfg := range Configs() {
		res, err := Run("olden.treeadd", cfg, Options{Scale: 1})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Errorf("%s: empty result %+v", cfg, res)
		}
		if res.L1MissRate() <= 0 || res.L1MissRate() >= 1 {
			t.Errorf("%s: implausible L1 miss rate %v", cfg, res.L1MissRate())
		}
	}
}

func TestRunFunctionalOnly(t *testing.T) {
	res, err := Run("olden.mst", BC, Options{Scale: 1, FunctionalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("functional run reported cycles: %d", res.Cycles)
	}
	if res.L1Misses == 0 || res.MemTrafficWords == 0 {
		t.Errorf("functional run missing cache stats: %+v", res)
	}
}

// TestRunCPPVariantHonoursOptions: the ablation entry point runs on the
// same path as Run, so every Options field applies to it and the paper's
// knobs (0x1, true) reproduce a plain CPP run exactly.
func TestRunCPPVariantHonoursOptions(t *testing.T) {
	const bench = "olden.treeadd"
	full, err := Run(bench, CPP, Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		opts  Options
		check func(t *testing.T, res Result, err error)
	}{
		{"fpc rejected like Run", Options{Scale: 1, Compressor: "fpc"}, func(t *testing.T, _ Result, err error) {
			_, want := Run(bench, CPP, Options{Scale: 1, Compressor: "fpc"})
			if want == nil || err == nil || err.Error() != want.Error() {
				t.Errorf("err = %v, want %v", err, want)
			}
		}},
		{"functional only", Options{Scale: 1, FunctionalOnly: true}, func(t *testing.T, res Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != 0 || res.L1Accesses != full.L1Accesses {
				t.Errorf("cycles %d, L1 accesses %d; want 0 and %d", res.Cycles, res.L1Accesses, full.L1Accesses)
			}
		}},
		{"paper knobs match Run", Options{Scale: 1}, func(t *testing.T, res Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got, err1 := ledger.ResultDigest(res)
			want, err2 := ledger.ResultDigest(full)
			if err1 != nil || err2 != nil || got != want {
				t.Errorf("digest %s (%v), want %s (%v)", got, err1, want, err2)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunCPPVariant(bench, 0x1, true, c.opts)
			c.check(t, res, err)
		})
	}
}

func TestHalvedPenaltyFaster(t *testing.T) {
	full, err := Run("olden.health", BC, Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run("olden.health", BC, Options{Scale: 1, HalveMissPenalty: true})
	if err != nil {
		t.Fatal(err)
	}
	if half.Cycles >= full.Cycles {
		t.Errorf("halved penalty not faster: %d vs %d", half.Cycles, full.Cycles)
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := Run("nope", BC, Options{Scale: 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run("olden.mst", "XYZ", Options{Scale: 1}); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestCompressFacade(t *testing.T) {
	if !CompressibleWord(42, 0x10000000) {
		t.Error("42 should be compressible")
	}
	c, ok := CompressWord(0x10001234, 0x10000000)
	if !ok {
		t.Fatal("pointer-like value should compress")
	}
	if got := DecompressWord(c, 0x10000000); got != 0x10001234 {
		t.Errorf("round trip = %#x", got)
	}
	if SmallValueMin != -16384 || SmallValueMax != 16383 {
		t.Error("small value range wrong")
	}
	words := []uint32{1, 2, 0xDEAD8001, 3}
	if got := CompressedLineWords(words, 0x1000); got != 2.5 {
		t.Errorf("CompressedLineWords = %v, want 2.5", got)
	}
	if CompressorGateDelay != 8 || DecompressorGateDelay != 2 {
		t.Error("gate delays wrong")
	}
}

func TestStandaloneSystem(t *testing.T) {
	sys, err := NewSystem(CPP)
	if err != nil {
		t.Fatal(err)
	}
	sys.Write(0x1000, 7)
	v, lat := sys.Read(0x1000)
	if v != 7 || lat != 1 {
		t.Errorf("read = %d, lat %d", v, lat)
	}
	snap := sys.Snapshot()
	if snap.L1Accesses != 2 {
		t.Errorf("snapshot accesses = %d", snap.L1Accesses)
	}
	mask, vp, err := CPPDetails(sys)
	if err != nil || mask != 1 || !vp {
		t.Errorf("CPPDetails = %v %v %v", mask, vp, err)
	}
	bc, _ := NewSystem(BC)
	if _, _, err := CPPDetails(bc); err == nil {
		t.Error("CPPDetails accepted a non-CPP system")
	}
}

func TestTraceBuilderFacade(t *testing.T) {
	tb := NewTraceBuilder(7)
	tb.SetPC(0x1000)
	node := tb.Alloc(16, 16)
	tb.Store(node, 5, NoReg, NoReg)
	if got := tb.Peek(node); got != 5 {
		t.Errorf("Peek = %d", got)
	}
	v := tb.Load(node, NoReg)
	sum := tb.ALU(v, NoReg)
	tb.Branch(sum, true)
	p := tb.Program("custom")
	if p.Len() != 4 || p.Name() != "custom" {
		t.Errorf("program = %s / %d", p.Name(), p.Len())
	}
	res, err := RunProgram(p, CPP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 4 {
		t.Errorf("ran %d instructions", res.Instructions)
	}
	var buf bytes.Buffer
	if n, err := p.WriteTo(&buf); err != nil || n != 4 {
		t.Errorf("WriteTo = %d, %v", n, err)
	}
}

func TestBuildBenchmark(t *testing.T) {
	p, err := BuildBenchmark("spec95.130.li", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() < 10000 {
		t.Errorf("trace too short: %d", p.Len())
	}
	if _, err := BuildBenchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBaselineDescription(t *testing.T) {
	desc := BaselineDescription()
	for _, want := range []string{"4 issue", "16 instr", "100 cycles", "8K direct-mapped"} {
		if !strings.Contains(desc, want) {
			t.Errorf("baseline table missing %q:\n%s", want, desc)
		}
	}
}

func TestSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	s := NewSuite(SuiteOptions{Scale: 1, Benchmarks: []string{"olden.treeadd", "olden.health"}})
	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	small := f3.Get("olden.treeadd", "small")
	ptr := f3.Get("olden.treeadd", "pointer")
	inc := f3.Get("olden.treeadd", "incompressible")
	if tot := small + ptr + inc; tot < 0.99 || tot > 1.01 {
		t.Errorf("fractions sum to %v", tot)
	}
	f10, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if f10.Get("olden.treeadd", "BC") != 1.0 {
		t.Error("traffic not normalised to BC")
	}
	if bcc := f10.Get("olden.treeadd", "BCC"); bcc >= 1.0 {
		t.Errorf("BCC traffic %v not below BC", bcc)
	}
	f11, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if cpp := f11.Get("geomean", "CPP"); cpp >= 1.05 {
		t.Errorf("CPP geomean execution time %v above BC", cpp)
	}
	if csv := f11.CSV(); !strings.Contains(csv, "benchmark,BC,BCC,HAC,BCP,CPP") {
		t.Error("CSV header malformed")
	}
}

func TestRelatedWorkAndEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := NewSuite(SuiteOptions{Scale: 1, Benchmarks: []string{"spec2000.300.twolf"}})
	rt, err := s.RelatedWorkTime()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"BC", "VC", "LCC", "BCP", "CPP"} {
		v := rt.Get("spec2000.300.twolf", col)
		if v <= 0 || v > 2 {
			t.Errorf("%s related-work time = %v", col, v)
		}
	}
	// The victim cache must help on the conflict-heavy benchmark.
	if vc := rt.Get("spec2000.300.twolf", "VC"); vc >= 1.0 {
		t.Errorf("VC time %v not below BC on twolf", vc)
	}
	e, err := s.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if bcc := e.Get("spec2000.300.twolf", "BCC"); bcc >= 1.0 {
		t.Errorf("BCC energy %v not below BC (compression saves bus energy)", bcc)
	}
	if _, err := s.RelatedWorkTraffic(); err != nil {
		t.Fatal(err)
	}
}

func TestExtraConfigsRun(t *testing.T) {
	if got := ExtraConfigs(); len(got) != 2 || got[0] != VC || got[1] != LCC {
		t.Fatalf("ExtraConfigs() = %v", got)
	}
	for _, cfg := range ExtraConfigs() {
		res, err := Run("olden.treeadd", cfg, Options{Scale: 1})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if res.Cycles == 0 {
			t.Errorf("%s: no cycles", cfg)
		}
	}
}

// TestPaperClaimsEndToEnd locks the paper's headline claims on three
// representative benchmarks at a small scale: it is the repository's
// primary regression net.
func TestPaperClaimsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	benches := []string{"olden.health", "olden.treeadd", "spec2000.300.twolf"}
	type row map[CacheConfig]Result
	results := map[string]row{}
	for _, b := range benches {
		results[b] = row{}
		for _, cfg := range Configs() {
			res, err := Run(b, cfg, Options{Scale: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", b, cfg, err)
			}
			results[b][cfg] = res
		}
	}
	for _, b := range benches {
		r := results[b]
		// 1. BCC transmits compressed: strictly less traffic, identical timing.
		if r[BCC].MemTrafficWords >= r[BC].MemTrafficWords {
			t.Errorf("%s: BCC traffic not below BC", b)
		}
		if r[BCC].Cycles != r[BC].Cycles {
			t.Errorf("%s: BCC timing differs from BC", b)
		}
		// 2. BCP prefetching never reduces traffic below BC.
		if r[BCP].MemTrafficWords < r[BC].MemTrafficWords*0.97 {
			t.Errorf("%s: BCP traffic suspiciously below BC", b)
		}
		// 3. CPP prefetches yet uses less bandwidth than BC — the headline.
		if r[CPP].MemTrafficWords >= r[BC].MemTrafficWords {
			t.Errorf("%s: CPP traffic (%v) not below BC (%v)", b,
				r[CPP].MemTrafficWords, r[BC].MemTrafficWords)
		}
		// 4. CPP never loses badly to BC on time ("never causes pollution").
		if float64(r[CPP].Cycles) > 1.08*float64(r[BC].Cycles) {
			t.Errorf("%s: CPP cycles %d far above BC %d", b, r[CPP].Cycles, r[BC].Cycles)
		}
		// 5. CPP actually exercises its mechanisms.
		if r[CPP].AffiliatedHitsL1 == 0 || r[CPP].AffWordsPrefetched == 0 {
			t.Errorf("%s: CPP ran without affiliated activity", b)
		}
		// 6. Only CPP reports affiliated activity.
		if r[BC].AffiliatedHitsL1 != 0 || r[BCP].AffiliatedHitsL1 != 0 {
			t.Errorf("%s: non-CPP config reported affiliated hits", b)
		}
	}
	// 7. On the conflict-dominated benchmark the paper highlights, CPP
	// beats BCP on time (twolf; §4.3).
	tw := results["spec2000.300.twolf"]
	if tw[CPP].Cycles >= tw[BCP].Cycles {
		t.Errorf("twolf: CPP (%d) should beat BCP (%d) when conflict misses dominate",
			tw[CPP].Cycles, tw[BCP].Cycles)
	}
}
