package hier

import (
	"fmt"

	"cppcache/internal/cache"
	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
)

// LCC is the line-level compression cache of the reproduced paper's
// related work ([6], Yang/Zhang/Gupta, MICRO 2000, as summarised in §5):
// "Two conflicting cache lines can be stored in the same line if both are
// compressible; otherwise, only one of them is stored." Compression is
// all-or-nothing at line granularity — a line qualifies only when every
// word in it compresses — and, as the paper argues, such schemes "operate
// at the cache line level and do not distinguish the importance of
// different words within a cache line", so they cannot do partial-line
// prefetching. LCC exists here to let that comparison be measured.
//
// The L1 is modelled with paired frames: each physical frame can hold one
// uncompressed line or two fully-compressible lines, as two slots of the
// shared tag store (cache.Array). The L2 and memory
// interface follow the baseline (with compressed bus transfers, since the
// hardware has compressors anyway).
type LCC struct {
	cfg   Config
	l1    *lccArray
	l2    *cache.Cache
	mem   *mem.Memory
	stats memsys.Stats
	g1    mach.LineGeom
	g2    mach.LineGeom
	comp  compress.Compressor

	// obs, when non-nil, receives fill-word compressibility counts and
	// attribution events; a nil recorder costs one branch per hook.
	obs *obs.Recorder

	// fetchBuf stages one L2 line read from memory; l2.Fill copies it.
	fetchBuf []mach.Word
}

var _ memsys.System = (*LCC)(nil)

// LCCConfig returns the LCC configuration on the baseline geometry.
func LCCConfig() Config {
	c := BaselineConfig()
	c.Name = "LCC"
	c.CompressTraffic = true
	return c
}

// NewLCC builds the LCC hierarchy over main memory m.
func NewLCC(cfg Config, m *mem.Memory) (*LCC, error) {
	if err := cfg.L1.Validate(); err != nil {
		return nil, fmt.Errorf("hier: LCC L1: %w", err)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("hier: LCC L2: %w", err)
	}
	comp := cfg.Comp
	if comp == nil {
		comp = compress.Default()
	}
	l2.TrackCompression(comp)
	h := &LCC{
		cfg:  cfg,
		l1:   newLCCArray(cfg.L1, comp),
		l2:   l2,
		mem:  m,
		g1:   mach.LineGeom{LineBytes: cfg.L1.LineBytes},
		g2:   mach.LineGeom{LineBytes: cfg.L2.LineBytes},
		comp: comp,
	}
	h.fetchBuf = make([]mach.Word, h.g2.Words())
	return h, nil
}

// Name implements memsys.System.
func (h *LCC) Name() string { return h.cfg.Name }

// Stats implements memsys.System.
func (h *LCC) Stats() *memsys.Stats { return &h.stats }

// SetRecorder implements obs.Attachable: it attaches the observability
// recorder (nil detaches) and connects the statistics block for interval
// snapshotting.
func (h *LCC) SetRecorder(r *obs.Recorder) {
	h.obs = r
	r.AttachStats(&h.stats)
}

// lccArray is the LCC L1 on the shared tag store, with two slots per
// frame: frame f of a set owns slots 2f and 2f+1, so a slot's frame-mate
// is slot^1. Each frame holds one uncompressed line or two compressed
// ones.
type lccArray struct {
	p     cache.Params
	geom  mach.LineGeom
	tags  cache.Array
	slots []lccSlot // payload of slot i
	comp  compress.Compressor
}

// lccSlot is the payload of one line slot.
type lccSlot struct {
	dirty      bool
	compressed bool        // stored in 16-bit form (all words compressible)
	data       []mach.Word // logical values
}

func newLCCArray(p cache.Params, comp compress.Compressor) *lccArray {
	a := &lccArray{
		p:    p,
		geom: mach.LineGeom{LineBytes: p.LineBytes},
		tags: cache.NewArray(p.Sets(), 2*p.Assoc),
		comp: comp,
	}
	words := a.geom.Words()
	a.slots = make([]lccSlot, a.tags.Len())
	slab := make([]mach.Word, len(a.slots)*words)
	for i := range a.slots {
		a.slots[i].data = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return a
}

// lineCompressible reports whether the line fits a half frame under the
// array's scheme: its compressed size is at most one half-word per word.
// Under the paper's scheme this reduces to every word compressing, the
// original all-or-nothing rule.
func (a *lccArray) lineCompressible(data []mach.Word, base mach.Addr) bool {
	return a.comp.LineHalves(data, base) <= len(data)
}

func (a *lccArray) fill(i int, n mach.Addr, data []mach.Word, comp bool) {
	a.tags.Install(i, n)
	a.slots[i].dirty = false
	a.slots[i].compressed = comp
	copy(a.slots[i].data, data)
}

// newest returns the most recent use of the frame starting at slot f, 0
// when both its slots are empty.
func (a *lccArray) newest(f int) uint64 {
	u := uint64(0)
	for i := f; i < f+2; i++ {
		if a.tags.Valid(i) && a.tags.Stamp(i) > u {
			u = a.tags.Stamp(i)
		}
	}
	return u
}

// install places line n in the L1, evicting as the sharing rule requires;
// evicted dirty lines are written back before their slot is reused.
func (h *LCC) install(n mach.Addr, data []mach.Word) {
	a := h.l1
	comp := a.lineCompressible(data, a.geom.NumberToAddr(n))
	set, end := a.tags.Set(n), a.tags.Set(n)+2*a.p.Assoc

	// Prefer a slot that costs nothing: an invalid slot whose frame-mate
	// is compressible (when we are too), or a fully invalid frame.
	if comp {
		for i := set; i < end; i++ {
			mate := i ^ 1
			if !a.tags.Valid(i) && (!a.tags.Valid(mate) || a.slots[mate].compressed) {
				a.fill(i, n, data, true)
				if a.tags.Valid(mate) {
					h.stats.AffWordsPrefetchedL1++
				}
				return
			}
		}
	} else {
		for f := set; f < end; f += 2 {
			if !a.tags.Valid(f) && !a.tags.Valid(f+1) {
				a.fill(f, n, data, false)
				return
			}
		}
	}

	// Evict from the LRU frame (by its most recent use).
	victim, vUsed := set, a.newest(set)
	for f := set + 2; f < end; f += 2 {
		if u := a.newest(f); u < vUsed {
			victim, vUsed = f, u
		}
	}
	if comp {
		// A compressed newcomer can share the victim frame with one
		// resident compressed line, evicting at most the other slot.
		// When both slots hold compressed lines, the more recently used
		// of the two is the one evicted.
		for i := victim; i < victim+2; i++ {
			mate := i ^ 1
			if a.tags.Valid(mate) && !a.slots[mate].compressed {
				continue
			}
			if a.tags.Valid(i) {
				if a.tags.Valid(mate) && a.tags.Stamp(mate) > a.tags.Stamp(i) {
					continue
				}
				h.evictL1(i, false)
			}
			a.fill(i, n, data, true)
			if a.tags.Valid(mate) {
				h.stats.AffWordsPrefetchedL1++
			}
			return
		}
	}
	for i := victim; i < victim+2; i++ {
		if a.tags.Valid(i) {
			h.evictL1(i, false)
		}
	}
	a.fill(victim, n, data, comp)
}

// evictL1 empties L1 slot i, writing its line back when dirty or when
// always is set.
func (h *LCC) evictL1(i int, always bool) {
	if always || h.l1.slots[i].dirty {
		h.writeback(h.l1.tags.Tag(i), h.l1.slots[i].data)
	}
	h.l1.tags.Invalidate(i)
}

// access is the shared read/write path.
func (h *LCC) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++
	n := h.g1.LineNumber(a)
	w := h.g1.WordIndex(a)

	i := h.l1.tags.Lookup(n)
	lat := h.cfg.Lat.L1Hit
	if i < 0 {
		h.stats.L1.Misses++
		h.obs.AttrMiss(a)
		lat = h.fetch(n)
		if i = h.l1.tags.Lookup(n); i < 0 {
			panic("hier: LCC line absent after fetch")
		}
	}
	h.l1.tags.Touch(i)
	l := &h.l1.slots[i]
	if write {
		l.data[w] = v
		l.dirty = true
		// A write that breaks the line's compressed fit forces it back
		// to uncompressed form; its frame-mate is evicted (and written
		// back, dirty or not), exactly the all-or-nothing cost the paper
		// contrasts CPP against. Word-capable schemes (the paper's)
		// answer with an O(1) per-word check; line-granular schemes
		// recompress the line.
		if l.compressed {
			still := false
			if wc, ok := h.comp.(compress.WordCompressor); ok {
				still = wc.CompressibleWord(v, a)
			} else {
				still = h.l1.lineCompressible(l.data, h.g1.NumberToAddr(n))
			}
			if !still {
				l.compressed = false
				if h.l1.tags.Valid(i ^ 1) {
					h.evictL1(i^1, true)
					h.stats.ConflictEvictions++
				}
			}
		}
		return 0, lat
	}
	return l.data[w], lat
}

// fetch brings line n in from the L2 (or memory) and installs it.
func (h *LCC) fetch(n mach.Addr) int {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	base := h.g1.NumberToAddr(n)
	l2line := h.l2.Access(base)
	if l2line == nil {
		h.stats.L2.Misses++
		data := h.fetchBuf
		l2base := h.g2.LineAddr(base)
		h.mem.ReadLine(l2base, data)
		h.stats.MemReadHalves += int64(h.comp.LineHalves(data, l2base))
		if h.obs != nil {
			h.obs.FillLine(data, l2base)
		}
		if ev := h.l2.Fill(base, data); ev.Valid && ev.Dirty {
			evBase := h.g2.NumberToAddr(ev.Tag)
			h.mem.WriteLine(evBase, ev.Data)
			h.stats.MemWriteHalves += int64(h.comp.LineHalves(ev.Data, evBase))
			h.stats.L2.Writebacks++
		}
		l2line = h.l2.Probe(base)
		lat = h.cfg.Lat.Mem
	}
	// The window aliases the L2 line. Write-backs of L1 victims during
	// install touch other L1 lines' words only, never this window.
	off := h.g2.WordIndex(base)
	h.install(n, l2line.Data[off:off+h.g1.Words()])
	return lat
}

// writeback merges L1 line n's words into the L2, or memory if absent.
func (h *LCC) writeback(n mach.Addr, data []mach.Word) {
	h.stats.L1.Writebacks++
	base := h.g1.NumberToAddr(n)
	if h.l2.WriteWords(base, data) {
		return
	}
	h.mem.WriteLine(base, data)
	h.stats.MemWriteHalves += int64(h.comp.LineHalves(data, base))
}

// Read implements memsys.System.
func (h *LCC) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *LCC) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// SharedResidencies returns how many fills co-resided with a frame-mate
// (the LCC capacity benefit; stored in the AffWordsPrefetchedL1 counter).
func (h *LCC) SharedResidencies() int64 { return h.stats.AffWordsPrefetchedL1 }

// Occupancies implements memsys.Inspector. The L1 is reported in slot
// units — each physical frame offers two slots, each able to hold one
// compressed line (one half-word per word); an uncompressed line consumes
// both slots' half-word budget. The sharing rule makes Halves <= HalfCap
// an exact physical bound. The L1's CompHalves stays 0: its compression
// state is the all-or-nothing bit, not a per-line size. The L2 carries
// full tag metadata via cache.TrackCompression.
func (h *LCC) Occupancies() []memsys.Occupancy {
	w := h.g1.Words()
	o := memsys.Occupancy{
		Level:   "L1",
		LineCap: h.l1.tags.Len(),
		HalfCap: w * h.l1.tags.Len(),
	}
	for i := range h.l1.slots {
		if !h.l1.tags.Valid(i) {
			continue
		}
		o.Lines++
		if h.l1.slots[i].compressed {
			o.Halves += w
		} else {
			o.Halves += 2 * w
		}
	}
	return []memsys.Occupancy{o, h.l2.Occupancy("L2")}
}

// Drain flushes every dirty line to memory (diagnostic).
func (h *LCC) Drain() {
	for i := range h.l1.slots {
		if l := &h.l1.slots[i]; h.l1.tags.Valid(i) && l.dirty {
			h.mem.WriteLine(h.g1.NumberToAddr(h.l1.tags.Tag(i)), l.data)
			l.dirty = false
		}
	}
	h.l2.Lines(func(base mach.Addr, l *cache.Line) {
		if l.Dirty {
			data := append([]mach.Word(nil), l.Data...)
			for i := 0; i < len(data); i += h.g1.Words() {
				sub := base + mach.Addr(i*mach.WordBytes)
				if s := h.l1.tags.Lookup(h.g1.LineNumber(sub)); s >= 0 {
					copy(data[i:i+h.g1.Words()], h.l1.slots[s].data)
				}
			}
			h.mem.WriteLine(base, data)
			l.Dirty = false
		}
	})
}
