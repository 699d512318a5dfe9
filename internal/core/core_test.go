package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
)

// smallVals fills a region with compressible small values.
func fillSmall(m *mem.Memory, base mach.Addr, words int) {
	for i := 0; i < words; i++ {
		m.WriteWord(base+mach.Addr(i*4), mach.Word(i&0xFF))
	}
}

// fillBig fills a region with incompressible values.
func fillBig(m *mem.Memory, base mach.Addr, words int) {
	for i := 0; i < words; i++ {
		m.WriteWord(base+mach.Addr(i*4), 0x5A5A0000|mach.Word(i)<<16|0x8000)
	}
}

func newCPP(t *testing.T, m *mem.Memory) *Hierarchy {
	t.Helper()
	h, err := New(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.L1.SizeBytes != 8<<10 || c.L1.Assoc != 1 || c.L1.LineBytes != 64 {
		t.Errorf("CPP L1 = %+v", c.L1)
	}
	if c.L2.SizeBytes != 64<<10 || c.L2.Assoc != 2 || c.L2.LineBytes != 128 {
		t.Errorf("CPP L2 = %+v", c.L2)
	}
	if c.Mask != 1 || !c.VictimPlacement {
		t.Errorf("Mask=%d VictimPlacement=%v", c.Mask, c.VictimPlacement)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mask = 0
	if _, err := New(cfg, mem.New()); err == nil {
		t.Error("mask 0 accepted")
	}
	cfg = DefaultConfig()
	cfg.L2.LineBytes = 32
	if _, err := New(cfg, mem.New()); err == nil {
		t.Error("L2 line smaller than L1 accepted")
	}
	cfg = DefaultConfig()
	cfg.L1.Assoc = 3
	if _, err := New(cfg, mem.New()); err == nil {
		t.Error("non-pow2 set count accepted")
	}
}

func TestReadAfterWrite(t *testing.T) {
	h := newCPP(t, mem.New())
	h.Write(0x1000, 42)
	if v, _ := h.Read(0x1000); v != 42 {
		t.Fatalf("read %d, want 42", v)
	}
	// Incompressible value round trip.
	h.Write(0x1004, 0xDEAD8001)
	if v, _ := h.Read(0x1004); v != 0xDEAD8001 {
		t.Fatalf("read %#x, want 0xDEAD8001", v)
	}
	// Pointer-like value round trip (same 32K chunk as its address).
	h.Write(0x1008, 0x00001ABC)
	if v, _ := h.Read(0x1008); v != 0x00001ABC {
		t.Fatalf("read %#x, want 0x1ABC", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencies(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 64)
	h := newCPP(t, m)
	if _, lat := h.Read(0x1000); lat != 100 {
		t.Errorf("cold miss latency %d, want 100", lat)
	}
	if _, lat := h.Read(0x1004); lat != 1 {
		t.Errorf("primary hit latency %d, want 1", lat)
	}
}

// TestAffiliatedPrefetchOnFetch is the paper's core mechanism: fetching a
// line of compressible words brings the next line's compressible words
// into the same frame, so accessing the next line hits in the affiliated
// place at 1 extra cycle and without another memory access.
func TestAffiliatedPrefetchOnFetch(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32) // two consecutive L1 lines, all compressible
	h := newCPP(t, m)

	if _, lat := h.Read(0x1000); lat != 100 {
		t.Fatalf("cold miss lat = %d", lat)
	}
	s := h.Stats()
	if s.AffWordsPrefetchedL1 == 0 {
		t.Fatal("no affiliated words prefetched on a fully compressible fetch")
	}
	misses := s.L1.Misses
	v, lat := h.Read(0x1040) // the affiliated (next) line
	if v != 16 {
		t.Fatalf("affiliated read value = %d, want 16", v)
	}
	if lat != 2 {
		t.Errorf("affiliated hit latency = %d, want 2", lat)
	}
	if s.L1.Misses != misses {
		t.Errorf("affiliated hit counted as a miss")
	}
	if s.AffHitsL1 != 1 {
		t.Errorf("AffHitsL1 = %d, want 1", s.AffHitsL1)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNoPrefetchForIncompressible: incompressible words leave no slack, so
// nothing is prefetched and the next line misses.
func TestNoPrefetchForIncompressible(t *testing.T) {
	m := mem.New()
	fillBig(m, 0x1000, 32)
	h := newCPP(t, m)
	h.Read(0x1000)
	if got := h.Stats().AffWordsPrefetchedL1; got != 0 {
		t.Fatalf("prefetched %d words from incompressible lines", got)
	}
	misses := h.Stats().L1.Misses
	h.Read(0x1040)
	if h.Stats().L1.Misses != misses+1 {
		t.Error("next line access should miss when nothing was prefetched")
	}
}

// TestPartialPrefetch: a line with a mix of compressible and
// incompressible words prefetches only the pairwise-compressible subset
// (Figure 4's 7-of-8 example generalised).
func TestPartialPrefetch(t *testing.T) {
	m := mem.New()
	// Line A (0x1000): words 0..11 small, 12..15 big.
	// Line B (0x1040): words 0..7 small, 8..15 big.
	for i := 0; i < 16; i++ {
		var v mach.Word = mach.Word(i)
		if i >= 12 {
			v = 0x70008000 | mach.Word(i)
		}
		m.WriteWord(0x1000+mach.Addr(i*4), v)
	}
	for i := 0; i < 16; i++ {
		var v mach.Word = mach.Word(100 + i)
		if i >= 8 {
			v = 0x70008000 | mach.Word(i)
		}
		m.WriteWord(0x1040+mach.Addr(i*4), v)
	}
	h := newCPP(t, m)
	h.Read(0x1000)
	if got := h.Stats().AffWordsPrefetchedL1; got != 8 {
		t.Fatalf("prefetched %d affiliated words, want 8 (pairwise compressible)", got)
	}
	// Words 0..7 of line B hit in the affiliated place.
	for i := 0; i < 8; i++ {
		v, lat := h.Read(0x1040 + mach.Addr(i*4))
		if v != mach.Word(100+i) || lat != 2 {
			t.Fatalf("aff word %d: v=%d lat=%d", i, v, lat)
		}
	}
	// Word 8 of line B was not prefetched: miss.
	misses := h.Stats().L1.Misses
	h.Read(0x1040 + 8*4)
	if h.Stats().L1.Misses != misses+1 {
		t.Error("unprefetched word should miss")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAffiliatedWriteHitPromotes: a write hit in the affiliated place
// brings the line to its primary place (§3.3).
func TestAffiliatedWriteHitPromotes(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32)
	h := newCPP(t, m)
	h.Read(0x1000) // prefetches line 0x1040 into affiliated slots
	lat := h.Write(0x1044, 7)
	if lat != 2 {
		t.Errorf("affiliated write hit latency = %d, want 2", lat)
	}
	if h.Stats().Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", h.Stats().Promotions)
	}
	// Now the line is primary: reads are 1-cycle hits and see the store.
	if v, lat := h.Read(0x1044); v != 7 || lat != 1 {
		t.Fatalf("after promotion: v=%d lat=%d, want 7, 1", v, lat)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressibleToIncompressibleWrite: overwriting a compressible
// primary word with an incompressible value evicts the affiliated word
// sharing its slot; the primary line wins (§3.3).
func TestCompressibleToIncompressibleWrite(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32)
	h := newCPP(t, m)
	h.Read(0x1000)
	if h.Stats().AffWordsPrefetchedL1 == 0 {
		t.Fatal("setup: nothing prefetched")
	}
	h.Write(0x1000, 0xDEAD8001) // slot 0 primary becomes incompressible
	if h.Stats().ConflictEvictions != 1 {
		t.Errorf("ConflictEvictions = %d, want 1", h.Stats().ConflictEvictions)
	}
	if v, _ := h.Read(0x1000); v != 0xDEAD8001 {
		t.Fatalf("primary word lost: %#x", v)
	}
	// The affiliated word that shared slot 0 is gone; its line-mates are
	// still there.
	if v, lat := h.Read(0x1044); v != 17 || lat != 2 {
		t.Fatalf("surviving affiliated word: v=%d lat=%d", v, lat)
	}
	misses := h.Stats().L1.Misses
	h.Read(0x1040) // the evicted affiliated word
	if h.Stats().L1.Misses != misses+1 {
		t.Error("evicted affiliated word should miss")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimPlacement: an evicted line's compressible words are salvaged
// into its affiliated place when its partner is resident.
func TestVictimPlacement(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32)     // lines A (0x1000) and B (0x1040): partners
	fillBig(m, 0x1000+8<<10, 16) // line C conflicts with A in the 8K DM L1
	h := newCPP(t, m)

	h.Read(0x1000) // A primary (and B prefetched into A's frame)
	h.Read(0x1040) // B: affiliated hit stays where it is (read does not promote)

	// Make B primary: write to it (promotion), so A's eviction can target
	// B's frame.
	h.Write(0x1040, 5)
	// Now evict A by touching the conflicting line C.
	h.Read(0x1000 + 8<<10)
	if h.Stats().AffPlacements == 0 {
		t.Fatal("no victim placement recorded")
	}
	// A's words should now hit in the affiliated place of B's frame.
	v, lat := h.Read(0x1004)
	if v != 1 || lat != 2 {
		t.Fatalf("salvaged word: v=%d lat=%d, want 1, 2", v, lat)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimPlacementDisabled: the ablation knob turns salvaging off.
func TestVictimPlacementDisabled(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32)
	fillBig(m, 0x1000+8<<10, 16)
	cfg := DefaultConfig()
	cfg.VictimPlacement = false
	h, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0x1000)
	h.Write(0x1040, 5)
	h.Read(0x1000 + 8<<10)
	if h.Stats().AffPlacements != 0 {
		t.Error("victim placement happened despite being disabled")
	}
}

// TestSingleCopyInvariant: fetching a line whose partner is primary
// resident must not create an affiliated copy.
func TestSingleCopyInvariant(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x1000, 32)
	h := newCPP(t, m)
	h.Read(0x1040) // B primary (A prefetched into B's frame as affiliated)
	h.Read(0x1000) // A: affiliated hit? then write to force promotion
	h.Write(0x1000, 3)
	// Both A and B now primary; re-fetch of either must not duplicate.
	h.Read(0x1040)
	h.Read(0x1000)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyVictimWriteback: dirty data survives eviction through the
// hierarchy.
func TestDirtyVictimWriteback(t *testing.T) {
	m := mem.New()
	h := newCPP(t, m)
	h.Write(0x1000, 0xBEEF8001) // incompressible, dirty
	h.Read(0x1000 + 8<<10)      // evict from L1 (same DM set)
	if v, _ := h.Read(0x1000); v != 0xBEEF8001 {
		t.Fatalf("dirty data lost through eviction: %#x", v)
	}
}

// TestCoherenceRandom hammers the hierarchy with random reads and writes
// against a shadow map, checking invariants periodically. This is the
// main correctness test for CPP.
func TestCoherenceRandom(t *testing.T) {
	configs := map[string]Config{
		"default": DefaultConfig(),
	}
	noVictim := DefaultConfig()
	noVictim.VictimPlacement = false
	configs["no-victim-placement"] = noVictim
	mask2 := DefaultConfig()
	mask2.Mask = 0x2
	configs["mask-2"] = mask2

	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			m := mem.New()
			h, err := New(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			shadow := map[mach.Addr]mach.Word{}
			rng := rand.New(rand.NewSource(1234))
			for i := 0; i < 200000; i++ {
				a := mach.Addr(rng.Intn(1<<16)) &^ 3
				switch rng.Intn(4) {
				case 0: // write a compressible small value
					v := mach.Word(rng.Intn(100))
					h.Write(a, v)
					shadow[a] = v
				case 1: // write an incompressible value
					v := rng.Uint32() | 0x40008000
					h.Write(a, v)
					shadow[a] = v
				case 2: // write a pointer-like value
					v := (a &^ 0x7FFF) | mach.Word(rng.Intn(1<<15))&^3
					h.Write(a, v)
					shadow[a] = v
				default:
					if v, _ := h.Read(a); v != shadow[a] {
						t.Fatalf("iter %d: %#x = %#x, want %#x", i, a, v, shadow[a])
					}
				}
				if i%5000 == 0 {
					if err := h.CheckInvariants(); err != nil {
						t.Fatalf("iter %d: %v", i, err)
					}
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			h.Drain()
			for a, want := range shadow {
				if got := m.ReadWord(a); got != want {
					t.Fatalf("after drain, mem[%#x] = %#x, want %#x", a, got, want)
				}
			}
		})
	}
}

// TestSequentialSweepPrefetchWins: on a forward sweep over compressible
// data, CPP's partial prefetching turns roughly half the line misses into
// affiliated hits.
func TestSequentialSweepPrefetchWins(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0, 1<<14) // 64 KB of small values
	h := newCPP(t, m)
	for a := mach.Addr(0); a < 1<<16; a += 4 {
		h.Read(a)
	}
	s := h.Stats()
	if s.AffHitsL1 == 0 {
		t.Fatal("no affiliated hits on a compressible sweep")
	}
	// Every even line's fetch prefetches the odd line: misses should be
	// roughly one per two lines = accesses/32.
	lines := int64((1 << 16) / 64)
	if s.L1.Misses > lines*6/10 {
		t.Errorf("L1 misses = %d, want about half of %d lines", s.L1.Misses, lines)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficNeverExceedsPerMissBandwidth: each L2 miss moves exactly one
// L2 line of bus bandwidth regardless of prefetching (§3.3).
func TestTrafficNeverExceedsPerMissBandwidth(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0, 1<<14)
	h := newCPP(t, m)
	for a := mach.Addr(0); a < 1<<15; a += 64 {
		h.Read(a)
	}
	s := h.Stats()
	perMiss := float64(s.MemReadHalves) / float64(s.L2.Misses)
	want := float64(2 * h.l2.geom.Words())
	if perMiss != want {
		t.Errorf("read traffic per L2 miss = %.1f halves, want %.1f", perMiss, want)
	}
}

// TestValueDecompressionPaths verifies that values genuinely travel
// through the 16-bit compressed representation: a compressible word read
// from an affiliated slot equals the original even for negative and
// pointer values.
func TestValueDecompressionPaths(t *testing.T) {
	m := mem.New()
	// Line A: all small positives (compressible).
	fillSmall(m, 0x2000, 16)
	// Line B: negatives and pointers into B's own 32K chunk.
	for i := 0; i < 16; i++ {
		a := mach.Addr(0x2040 + i*4)
		if i%2 == 0 {
			m.WriteWord(a, mach.Word(int32(-1-i)))
		} else {
			m.WriteWord(a, (a&^0x7FFF)|0x123)
		}
	}
	h := newCPP(t, m)
	h.Read(0x2000)
	for i := 0; i < 16; i++ {
		a := mach.Addr(0x2040 + i*4)
		want := m.ReadWord(a)
		v, lat := h.Read(a)
		if v != want {
			t.Fatalf("word %d: got %#x, want %#x (lat %d)", i, v, want, lat)
		}
	}
}

func BenchmarkCPPSweep(b *testing.B) {
	m := mem.New()
	fillSmall(m, 0, 1<<14)
	h, _ := New(DefaultConfig(), m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(mach.Addr(i*4) & 0xFFFF)
	}
}

func BenchmarkCPPRandom(b *testing.B) {
	m := mem.New()
	h, _ := New(DefaultConfig(), m)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mach.Addr, 4096)
	for i := range addrs {
		addrs[i] = mach.Addr(rng.Intn(1<<20)) &^ 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(addrs[i%4096])
	}
}

// TestCoherenceAcrossGeometries runs the random coherence + invariant
// check over a spread of cache geometries, masks and policies, so the CPP
// structure is not only correct for the paper's configuration.
func TestCoherenceAcrossGeometries(t *testing.T) {
	type geo struct {
		l1Size, l1Assoc, l1Line int
		l2Size, l2Assoc, l2Line int
		mask                    mach.Addr
		victim                  bool
	}
	geos := []geo{
		{4 << 10, 1, 32, 32 << 10, 2, 64, 0x1, true},
		{8 << 10, 2, 64, 64 << 10, 4, 128, 0x1, true},
		{2 << 10, 4, 64, 16 << 10, 8, 64, 0x1, false}, // equal line sizes
		{8 << 10, 1, 64, 64 << 10, 2, 128, 0x3, true}, // multi-bit mask
		{1 << 10, 1, 16, 8 << 10, 2, 32, 0x1, true},   // tiny: heavy conflicts
		// A mask bit above the set index at both levels: the partner
		// shares its line's set and can be the victim of its install.
		{8 << 10, 1, 64, 64 << 10, 2, 128, 0x100, true},
		{8 << 10, 1, 64, 64 << 10, 2, 128, 0x100, false},
	}
	for gi, g := range geos {
		cfg := DefaultConfig()
		cfg.L1 = cache.Params{SizeBytes: g.l1Size, Assoc: g.l1Assoc, LineBytes: g.l1Line}
		cfg.L2 = cache.Params{SizeBytes: g.l2Size, Assoc: g.l2Assoc, LineBytes: g.l2Line}
		cfg.Mask = g.mask
		cfg.VictimPlacement = g.victim
		m := mem.New()
		h, err := New(cfg, m)
		if err != nil {
			t.Fatalf("geometry %d: %v", gi, err)
		}
		shadow := map[mach.Addr]mach.Word{}
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		for i := 0; i < 60000; i++ {
			a := mach.Addr(rng.Intn(1<<15)) &^ 3
			switch rng.Intn(4) {
			case 0:
				v := mach.Word(rng.Intn(500))
				h.Write(a, v)
				shadow[a] = v
			case 1:
				v := rng.Uint32() | 0x40008000
				h.Write(a, v)
				shadow[a] = v
			default:
				if v, _ := h.Read(a); v != shadow[a] {
					t.Fatalf("geometry %d iter %d: %#x = %#x, want %#x", gi, i, a, v, shadow[a])
				}
			}
			if i%10000 == 0 {
				if err := h.CheckInvariants(); err != nil {
					t.Fatalf("geometry %d iter %d: %v", gi, i, err)
				}
			}
		}
		h.Drain()
		for a, want := range shadow {
			if got := m.ReadWord(a); got != want {
				t.Fatalf("geometry %d: after drain mem[%#x] = %#x, want %#x", gi, a, got, want)
			}
		}
	}
}

// TestQuickRandomOps is a property test over short random operation
// sequences: for any sequence, values read back match a shadow map and
// the invariants hold at the end.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64, ops uint16) bool {
		m := mem.New()
		h, err := New(DefaultConfig(), m)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := map[mach.Addr]mach.Word{}
		n := int(ops%2048) + 64
		for i := 0; i < n; i++ {
			a := mach.Addr(rng.Intn(1<<13)) &^ 3
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				h.Write(a, v)
				shadow[a] = v
			} else if v, _ := h.Read(a); v != shadow[a] {
				return false
			}
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPartialLineMergeKeepsDirtyWords: a write to a line, followed by its
// partner's fetch evicting it into affiliated storage, followed by a read
// of an unwritten word, must both preserve the dirty word and fill the
// hole from the L2.
func TestPartialLineMergeKeepsDirtyWords(t *testing.T) {
	m := mem.New()
	fillSmall(m, 0x3000, 32)
	h := newCPP(t, m)
	h.Read(0x3000)        // line A primary, line B prefetched into A's frame
	h.Write(0x3044, 9999) // write to B: affiliated hit -> promotion
	// Evict B (same DM set as B + 8K).
	h.Read(0x3040 + 8<<10)
	// B's compressible words were salvaged into A's frame (victim
	// placement); read the dirty word back through the affiliated path.
	if v, _ := h.Read(0x3044); v != 9999 {
		t.Fatalf("dirty word lost: %d", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
