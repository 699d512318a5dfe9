package hier

import (
	"fmt"

	"cppcache/internal/cache"
	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
)

// VictimConfig describes the VC hierarchy: the baseline caches plus a
// small fully associative victim cache between the L1 and the L2
// (Jouppi, ISCA 1990 — the same paper the prefetch buffers come from,
// reference [3] of the reproduced paper). It is a related-work
// comparison point: like CPP's affiliated placement it recovers conflict
// victims, but it needs dedicated storage and does not prefetch.
type VictimConfig struct {
	Config
	VictimEntries int
}

// VictimConfigDefault returns BC plus an 8-entry victim cache, matching
// the hardware budget of BCP's L1 prefetch buffer.
func VictimConfigDefault() VictimConfig {
	c := BaselineConfig()
	c.Name = "VC"
	return VictimConfig{Config: c, VictimEntries: 8}
}

// Victim is the VC hierarchy.
type Victim struct {
	Standard
	vcfg VictimConfig
	vc   *cache.Cache // fully associative, L1-sized lines
}

var _ memsys.System = (*Victim)(nil)

// NewVictim builds the VC hierarchy over main memory m.
func NewVictim(cfg VictimConfig, m *mem.Memory) (*Victim, error) {
	std, err := NewStandard(cfg.Config, m)
	if err != nil {
		return nil, err
	}
	if cfg.VictimEntries < 1 {
		return nil, fmt.Errorf("hier: victim cache needs at least one entry")
	}
	vc, err := cache.New(cache.Params{
		SizeBytes: cfg.VictimEntries * cfg.L1.LineBytes,
		Assoc:     cfg.VictimEntries,
		LineBytes: cfg.L1.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("hier: victim cache: %w", err)
	}
	return &Victim{Standard: *std, vcfg: cfg, vc: vc}, nil
}

// access is the shared read/write path.
func (h *Victim) access(a mach.Addr, write bool, v mach.Word) (mach.Word, int) {
	a = mach.WordAlign(a)
	h.stats.L1.Accesses++

	finish := func(lat int) (mach.Word, int) {
		if write {
			if !h.l1.WriteWord(a, v) {
				panic("hier: word absent after victim fill on write")
			}
			return 0, lat
		}
		rv, ok := h.l1.ReadWord(a)
		if !ok {
			panic("hier: word absent after victim fill")
		}
		return rv, lat
	}

	if h.l1.Probe(a) != nil {
		h.l1.Access(a)
		return finish(h.cfg.Lat.L1Hit)
	}

	// Victim-cache hit: swap the line back into the L1. Jouppi charges
	// one extra cycle for the swap; we use the affiliated-hit latency,
	// which models the same "next cycle" penalty.
	if buf := h.vc.Probe(a); buf != nil {
		h.stats.PfBufHitsL1++ // reuse the buffer-hit counter for VC hits
		dirty := buf.Dirty
		ev := h.l1.Fill(a, h.vc.Invalidate(a).Data)
		if dirty {
			if l := h.l1.Probe(a); l != nil {
				l.Dirty = true
			}
		}
		h.spill(ev)
		return finish(h.cfg.Lat.AffHit)
	}

	h.stats.L1.Misses++
	h.obs.AttrMiss(a)
	lat := h.fetchIntoL1Victim(a)
	return finish(lat)
}

// fetchIntoL1Victim is Standard.fetchIntoL1 with victim-cache spill
// instead of direct write-back.
func (h *Victim) fetchIntoL1Victim(a mach.Addr) int {
	h.stats.L2.Accesses++
	lat := h.cfg.Lat.L2Hit
	l2line := h.l2.Access(a)
	if l2line == nil {
		h.stats.L2.Misses++
		h.fillL2(a, h.memFetchL2(a))
		l2line = h.l2.Probe(a)
		lat = h.cfg.Lat.Mem
	}
	base := h.g1.LineAddr(a)
	off := h.g2.WordIndex(base)
	window := l2line.Data[off : off+h.g1.Words()]
	ev := h.l1.Fill(a, window)
	h.spill(ev)
	return lat
}

// spill places an evicted L1 line into the victim cache; whatever the
// victim cache displaces is written back if dirty.
func (h *Victim) spill(ev cache.Evicted) {
	if !ev.Valid {
		return
	}
	base := h.g1.NumberToAddr(ev.Tag)
	out := h.vc.Fill(base, ev.Data)
	if l := h.vc.Probe(base); l != nil && ev.Dirty {
		l.Dirty = true
	}
	if out.Valid && out.Dirty {
		h.l2Writeback(out)
	}
}

// Read implements memsys.System.
func (h *Victim) Read(a mach.Addr) (mach.Word, int) { return h.access(a, false, 0) }

// Write implements memsys.System.
func (h *Victim) Write(a mach.Addr, v mach.Word) int {
	_, lat := h.access(a, true, v)
	return lat
}

// Drain flushes dirty lines, including the victim cache, to memory. The
// victim cache flushes last: its lines were evicted from the L1 without
// an L2 write-back, so they are fresher than any L2 copy the standard
// drain writes out.
func (h *Victim) Drain() {
	h.Standard.Drain()
	h.vc.Lines(func(base mach.Addr, l *cache.Line) {
		if l.Dirty {
			h.mem.WriteLine(base, l.Data)
			l.Dirty = false
		}
	})
}
