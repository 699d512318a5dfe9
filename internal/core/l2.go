package core

import (
	"math/bits"

	"cppcache/internal/mach"
	"cppcache/internal/obs"
)

// probeL2Into fills dst with the on-chip availability of L1 line n at the
// L2: which of its words the L2 currently holds (as primary or affiliated
// data), their logical values, and their compressibility. It never
// triggers a fetch — the L1<->L2 interface is word-based and a partial
// answer is acceptable (§3.1). The second result reports whether the words
// came from affiliated storage (for statistics). dst is one of the
// Hierarchy's scratch windows; the filled window is returned for
// convenience.
func (h *Hierarchy) probeL2Into(dst *window, n mach.Addr) (*window, bool) {
	c := h.l2
	dst.reset()
	base := h.l1.geom.NumberToAddr(n)
	N := c.geom.LineNumber(base)
	off := c.geom.WordIndex(base)
	span := lowBits(h.l1.geom.Words())

	if i := c.tags.Lookup(N); i >= 0 {
		for m := (c.f[i].pa >> uint(off)) & span; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			j := off + w
			dst.set(w, c.readPrimary(i, j, base+mach.Addr(w*mach.WordBytes)), c.f[i].pc&bit(j) != 0)
		}
		return dst, false
	}
	if i := c.tags.Lookup(N ^ h.cfg.Mask); i >= 0 {
		for m := (c.f[i].aa >> uint(off)) & span; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			// Affiliated words are compressible by construction.
			dst.set(w, c.readAff(i, off+w, base+mach.Addr(w*mach.WordBytes)), true)
		}
	}
	return dst, true
}

// serveFromL2 satisfies an L1 demand for word needWord of L1 line n.
// If the word is on chip (primary or affiliated storage, possibly a
// partial line), that is an L2 hit and only the available words are
// returned (§3.1: "we do not always enforce a complete line from the L2
// cache as long as the requested data item is found"). Otherwise the L2
// fetches from memory. Returns the payload and the total latency.
func (h *Hierarchy) serveFromL2(n mach.Addr, needWord int) (*window, int) {
	h.stats.L2.Accesses++
	pl, fromAff := h.probeL2Into(&h.probeW, n)
	if pl.has(needWord) {
		if fromAff {
			h.stats.AffHitsL2++
			h.obs.Event(obs.EvAffHitL2, h.l1.geom.NumberToAddr(n), 0)
			h.obs.AttrAffHit(h.l1.geom.NumberToAddr(n))
		}
		h.touchL2(n)
		return pl, h.cfg.Lat.L2Hit
	}
	h.stats.L2.Misses++
	base := h.l1.geom.NumberToAddr(n)
	h.fetchL2FromMem(h.l2.geom.LineNumber(base))
	pl, _ = h.probeL2Into(&h.probeW, n)
	if !pl.has(needWord) {
		panic("core: word absent after L2 memory fetch")
	}
	return pl, h.cfg.Lat.Mem
}

// touchL2 refreshes LRU state for the frame serving L1 line n.
func (h *Hierarchy) touchL2(n mach.Addr) {
	N := h.l2.geom.LineNumber(h.l1.geom.NumberToAddr(n))
	if i := h.l2.tags.Lookup(N); i >= 0 {
		h.l2.tags.Touch(i)
	} else if i := h.l2.tags.Lookup(N ^ h.cfg.Mask); i >= 0 {
		h.l2.tags.Touch(i)
	}
}

// fetchL2FromMem fetches L2 line N from memory together with its
// affiliated line N^Mask (§3.3, L2-memory interface: "both the primary and
// the affiliated lines are fetched. However, before returning the data,
// the cache lines are compressed and only available places from the
// primary line are used to store the compressible items from the
// affiliated line. The memory bandwidth is still the same as before.").
func (h *Hierarchy) fetchL2FromMem(N mach.Addr) {
	words := h.l2.geom.Words()
	base := h.l2.geom.NumberToAddr(N)
	partner := N ^ h.cfg.Mask
	pbase := h.l2.geom.NumberToAddr(partner)

	data := h.memLine
	h.mem.ReadLine(base, data)
	affData := h.memAff
	h.mem.ReadLine(pbase, affData)

	// Bus cost: exactly one uncompressed line's worth of bandwidth; the
	// affiliated words travel in the slack left by compressed words.
	h.stats.MemReadHalves += int64(2 * words)

	pl, aff := &h.l2Pl, &h.l2Aff
	pl.reset()
	aff.reset()
	compCount := int64(0)
	for i := 0; i < words; i++ {
		a := base + mach.Addr(i*mach.WordBytes)
		comp := compressibleAt(data[i], a)
		pl.set(i, data[i], comp)
		if comp {
			compCount++
		}

		pa := pbase + mach.Addr(i*mach.WordBytes)
		if comp && compressibleAt(affData[i], pa) {
			aff.set(i, affData[i], true)
		}
	}
	h.obs.FillWords(int64(words), compCount)
	h.obs.AttrFillFail(base, int64(words)-compCount)

	h.installL2(N, pl, aff)
}

// writebackL2Victim writes a dirty L2 victim's available words to memory.
// The transfer is compressed: a compressible word costs one half-word on
// the bus.
func (h *Hierarchy) writebackL2Victim(ev *evicted) {
	h.stats.L2.Writebacks++
	base := h.l2.geom.NumberToAddr(ev.tag)
	for m := ev.present; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		h.mem.WriteWord(base+mach.Addr(w*mach.WordBytes), ev.vals[w])
	}
	// A compressible word costs one half-word on the bus, any other two.
	h.stats.MemWriteHalves += int64(2*bits.OnesCount64(ev.present) - bits.OnesCount64(ev.present&ev.comp))
}

// CheckInvariants validates the structural invariants of both levels plus
// the cross-level cleanliness rule. Tests call it periodically; it is not
// used on the hot path.
func (h *Hierarchy) CheckInvariants() error {
	if err := h.l1.checkInvariants("L1"); err != nil {
		return err
	}
	return h.l2.checkInvariants("L2")
}

// Drain flushes every dirty line down to memory, L1 first so the freshest
// data wins. Diagnostic only: traffic is not accounted.
func (h *Hierarchy) Drain() {
	flush := func(c *cpc) {
		for i := range c.f {
			f := &c.f[i]
			if !c.tags.Valid(i) || !f.dirty {
				continue
			}
			for m := f.pa; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				a := c.wordAddr(c.tags.Tag(i), w)
				h.mem.WriteWord(a, c.readPrimary(i, w, a))
			}
			f.dirty = false
		}
	}
	// L2 first, then L1 overwrites with fresher words.
	flush(h.l2)
	flush(h.l1)
}
