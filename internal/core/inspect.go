package core

import (
	"math/bits"

	"cppcache/internal/mach"
	"cppcache/internal/memsys"
)

// This file exports read-only views of the compression cache's internal
// state for the differential-verification harness (internal/verify), plus
// a fault injector its tests use to prove the invariant checkers detect
// real corruption, plus the fault-hook installer the seeded chaos harness
// (internal/chaos) uses to fire panics, stalls and cancellations at
// deterministic hierarchy points. Nothing here is on the simulation hot
// path.

// SetFaultHook installs fn at the hierarchy's fault-injection points: it
// is called with a site label on every L1 fill ("cpp.fill-l1") and L2
// install ("cpp.install-l2"). nil removes the hook. The hook runs on the
// simulation goroutine, synchronously inside the access, so a hook that
// panics abandons the hierarchy mid-operation — callers that inject
// panics must treat the hierarchy as unusable afterwards.
func (h *Hierarchy) SetFaultHook(fn func(site string)) { h.fault = fn }

// levelCPC maps 1 -> L1, 2 -> L2, panicking on anything else (programming
// error in a checker).
func (h *Hierarchy) levelCPC(level int) *cpc {
	switch level {
	case 1:
		return h.l1
	case 2:
		return h.l2
	}
	panic("core: cache level must be 1 or 2")
}

// Occupancies implements memsys.Inspector. Compressed primary words and
// affiliated words count one half-word each; uncompressed primary words
// count two. A correct CPP level can never exceed its physical half-word
// capacity — the freed half-slots are the only place affiliated data may
// live.
func (h *Hierarchy) Occupancies() []memsys.Occupancy {
	out := make([]memsys.Occupancy, 0, 2)
	for level, name := range []string{"L1", "L2"} {
		c := h.levelCPC(level + 1)
		occ := memsys.Occupancy{
			Level:   name,
			LineCap: c.tags.Len(),
			HalfCap: c.tags.Len() * c.words * 2,
		}
		for i := range c.f {
			if !c.tags.Valid(i) {
				continue
			}
			f := &c.f[i]
			occ.Lines++
			occ.Halves += bits.OnesCount64(f.pa&f.pc) + 2*bits.OnesCount64(f.pa&^f.pc) + bits.OnesCount64(f.aa)
		}
		out = append(out, occ)
	}
	return out
}

// AffWords calls fn for every affiliated word resident at the given level
// (1 or 2) with its byte address and decompressed value.
func (h *Hierarchy) AffWords(level int, fn func(a mach.Addr, v mach.Word)) {
	c := h.levelCPC(level)
	for i := range c.f {
		if !c.tags.Valid(i) {
			continue
		}
		partner := c.tags.Tag(i) ^ c.mask
		for m := c.f[i].aa; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			a := c.wordAddr(partner, w)
			fn(a, c.readAff(i, w, a))
		}
	}
}

// PrimaryProbe returns the primary-stored value of the word at address a
// at the given level, if that word is available there. It does not touch
// LRU state.
func (h *Hierarchy) PrimaryProbe(level int, a mach.Addr) (mach.Word, bool) {
	c := h.levelCPC(level)
	w := c.geom.WordIndex(a)
	if i := c.tags.Lookup(c.geom.LineNumber(a)); i >= 0 && c.f[i].pa&bit(w) != 0 {
		return c.readPrimary(i, w, a), true
	}
	return 0, false
}

// CorruptForTest deliberately damages internal state so that
// internal/verify's tests can demonstrate each invariant checker catches
// real corruption. It reports whether a suitable victim was found.
//
// Kinds:
//   - "aff-word": flip payload bits of the first resident affiliated word,
//     so it decompresses to a value that no longer mirrors memory.
//   - "aa-orphan": set an AA flag on a slot whose primary word is not
//     stored compressed, breaking the structural storage rule.
func (h *Hierarchy) CorruptForTest(kind string) bool {
	if kind != "aff-word" && kind != "aa-orphan" {
		panic("core: unknown corruption kind " + kind)
	}
	for _, c := range []*cpc{h.l1, h.l2} {
		for i := range c.f {
			if !c.tags.Valid(i) {
				continue
			}
			f := &c.f[i]
			if kind == "aff-word" && f.aa != 0 {
				c.ad16[i*c.words+bits.TrailingZeros64(f.aa)] ^= 0x1 // stays compressible, wrong value
				return true
			}
			if m := f.pa &^ f.pc &^ f.aa; kind == "aa-orphan" && m != 0 {
				f.aa |= m & -m
				return true
			}
		}
	}
	return false
}
