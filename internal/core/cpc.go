package core

import (
	"fmt"
	"math/bits"

	"cppcache/internal/cache"
	"cppcache/internal/compress"
	"cppcache/internal/mach"
)

// compressibleAt is a local alias to keep call sites short.
func compressibleAt(v mach.Word, a mach.Addr) bool { return compress.Compressible(v, a) }

// frame is the payload of one physical cache frame of the compression
// cache (Figure 7): the dirty bit and the paper's three flag bits per
// word slot, as masks with bit w for slot w. The frame hosts a primary
// line (the slot's tag) and, in the half-slots freed by compressed
// primary words, compressible words of the affiliated line tag^mask.
//
// Storage is faithful to the hardware: a compressible primary word and any
// affiliated word are held as 16-bit compressed values (the level's pd16
// and ad16 slabs) and decompressed with the accessing address on each
// read; an incompressible primary word is held whole (pd32).
type frame struct {
	dirty bool   // primary line dirty (affiliated copies are always clean)
	pa    uint64 // PA: primary word available
	pc    uint64 // VCP: primary word stored compressed (implies PA)
	aa    uint64 // AA: affiliated word present (implies PA and VCP)
}

// bit returns the mask of word slot w.
func bit(w int) uint64 { return 1 << uint(w) }

// lowBits returns the mask of the first n word slots.
func lowBits(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// window is a partial line in transit: per-slot availability and
// compressibility as per-line bitmasks (precomputed once, tested with
// single AND/shift operations on the hot path) plus the logical
// (uncompressed) values. A comp bit is set exactly when the slot's value
// compresses at its own address. Transfers carry logical values; each cache
// re-compresses on installation. Windows are scratch buffers owned by the
// Hierarchy and reused across accesses, so the steady state allocates
// nothing.
type window struct {
	present uint64
	comp    uint64
	vals    []mach.Word
}

func newWindow(words int) window {
	return window{vals: make([]mach.Word, words)}
}

// reset empties the window for reuse.
func (w *window) reset() { w.present, w.comp = 0, 0 }

// has reports whether slot i holds a value.
func (w *window) has(i int) bool { return w.present&bit(i) != 0 }

// set stores v into slot i with the given compressibility.
func (w *window) set(i int, v mach.Word, comp bool) {
	w.present |= bit(i)
	if comp {
		w.comp |= bit(i)
	} else {
		w.comp &^= bit(i)
	}
	w.vals[i] = v
}

// full reports whether every slot is present.
func (w *window) full() bool { return w.present == lowBits(len(w.vals)) }

// count returns the number of present slots.
func (w *window) count() int { return bits.OnesCount64(w.present) }

// evicted describes a primary line displaced by install: its words, with
// their compressibility, as a window. Each cpc owns one evicted scratch,
// valid until that level's next install.
type evicted struct {
	tag   mach.Addr
	dirty bool
	window
}

// cpc is one level of the compression cache: frames on the shared tag
// store (cache.Array), which owns lookup, true-LRU order and victim
// choice. Slot i's frame flags are f[i]; its word w lives at index
// i*words + w of the pd32, pd16 and ad16 slabs.
type cpc struct {
	geom  mach.LineGeom
	mask  mach.Addr
	words int
	tags  cache.Array
	f     []frame
	pd32  []mach.Word           // primary words stored uncompressed (PA, not VCP)
	pd16  []compress.Compressed // primary words stored compressed (PA and VCP)
	ad16  []compress.Compressed // affiliated words (AA)

	// evScratch backs the *evicted returned by install; it is valid until
	// this level's next install.
	evScratch evicted
}

func newCPC(p cache.Params, mask mach.Addr) (*cpc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	geom := mach.LineGeom{LineBytes: p.LineBytes}
	words := geom.Words()
	if words > 64 {
		// Frame flags and transfer windows track per-slot state in 64-bit
		// masks; 64 words (256-byte lines) is far beyond every geometry
		// the paper sweeps.
		return nil, fmt.Errorf("core: line size %d B exceeds the 64-word window limit", p.LineBytes)
	}
	c := &cpc{
		geom:  geom,
		mask:  mask,
		words: words,
		tags:  cache.NewArray(p.Sets(), p.Assoc),
	}
	slots := c.tags.Len()
	c.f = make([]frame, slots)
	c.pd32 = make([]mach.Word, slots*words)
	c.pd16 = make([]compress.Compressed, slots*words)
	c.ad16 = make([]compress.Compressed, slots*words)
	c.evScratch.window = newWindow(words)
	return c, nil
}

// wordAddr returns the byte address of word w of line n.
func (c *cpc) wordAddr(n mach.Addr, w int) mach.Addr {
	return c.geom.NumberToAddr(n) + mach.Addr(w*mach.WordBytes)
}

// readPrimary returns the primary word w of slot i, whose byte address is
// a, decompressing it if stored compressed. The caller ensures PA.
func (c *cpc) readPrimary(i, w int, a mach.Addr) mach.Word {
	if c.f[i].pc&bit(w) != 0 {
		return compress.Decompress(c.pd16[i*c.words+w], a)
	}
	return c.pd32[i*c.words+w]
}

// writePrimary stores v as the primary word w of slot i (byte address a),
// choosing the compressed or uncompressed form and updating PA and VCP.
// It does not touch the dirty bit or the affiliated half; see writeWord.
func (c *cpc) writePrimary(i, w int, a mach.Addr, v mach.Word) {
	f := &c.f[i]
	if cv, ok := compress.Compress(v, a); ok {
		f.pc |= bit(w)
		c.pd16[i*c.words+w] = cv
	} else {
		f.pc &^= bit(w)
		c.pd32[i*c.words+w] = v
	}
	f.pa |= bit(w)
}

// writeWord overwrites primary word w of slot i with v. When v no longer
// compresses, the primary word wins the full slot and the affiliated word
// sharing it is evicted (§3.3); writeWord reports whether that happened.
func (c *cpc) writeWord(i, w int, a mach.Addr, v mach.Word) bool {
	f := &c.f[i]
	wasComp := f.pc&bit(w) != 0
	c.writePrimary(i, w, a, v)
	if wasComp && f.pc&bit(w) == 0 && f.aa&bit(w) != 0 {
		f.aa &^= bit(w)
		return true
	}
	return false
}

// readAff returns the affiliated word w of slot i, whose byte address is
// a. The caller ensures AA.
func (c *cpc) readAff(i, w int, a mach.Addr) mach.Word {
	return compress.Decompress(c.ad16[i*c.words+w], a)
}

// setAff stores v (which must be compressible at address a) into the
// affiliated half-slot w of slot i.
func (c *cpc) setAff(i, w int, a mach.Addr, v mach.Word) {
	cv, ok := compress.Compress(v, a)
	if !ok {
		panic("core: setAff with incompressible value")
	}
	c.f[i].aa |= bit(w)
	c.ad16[i*c.words+w] = cv
}

// install merges line n's payload pl into a resident partial frame, or
// installs a fresh frame (choosing and extracting a victim). aff carries
// prefetched words of line n^mask; they are accepted only into slots whose
// primary word is present and compressible, and are discarded wholesale if
// the partner line is primary-resident (§3.3: "the prefetched affiliated
// line is discarded if it is already in the cache"). install returns n's
// slot and the displaced line, if any, for the hierarchy to write back and
// place.
//
// It scans two sets, n's and the partner's, both before any eviction.
// When a mask bit lies above the set index the two share a set and the
// partner may itself be the victim; its residency is still judged as it
// was, because its words (possibly dirty) are newer than the affiliated
// payload, which was read from below.
func (c *cpc) install(n mach.Addr, pl, aff *window, prefCtr *int64) (int, *evicted) {
	partner := n ^ c.mask
	i, hit := c.tags.Place(n)
	p := c.tags.Lookup(partner)

	// An affiliated copy of n in the partner's frame is now redundant: n
	// is primary. Its words are clean mirrors, at least as fresh as the
	// payload, and fill the slots the payload leaves empty.
	var salvage uint64
	if p >= 0 {
		salvage = c.f[p].aa
		c.f[p].aa = 0
	}

	var ev *evicted
	if !hit {
		if c.tags.Valid(i) {
			ev = c.evict(i)
			// Eviction also drops the frame's affiliated copies (of the
			// victim's partner); they are clean mirrors, safe to lose.
		}
		c.f[i] = frame{}
		c.tags.Install(i, n)
	}
	f := &c.f[i]

	// Resident words are newer (they may be dirty) than anything arriving
	// from below, so the payload and the salvage fill empty slots only.
	// When the partner's frame was the victim (p == i) the salvaged words
	// are still in ad16: clearing a frame drops its flags, not its
	// storage, and nothing here writes ad16 before they are read.
	for m := pl.present &^ f.pa; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		c.writePrimary(i, w, c.wordAddr(n, w), pl.vals[w])
	}
	for m := salvage &^ f.pa; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		a := c.wordAddr(n, w)
		c.writePrimary(i, w, a, compress.Decompress(c.ad16[p*c.words+w], a))
	}

	// Accept affiliated prefetch data. A window's comp bit is set exactly
	// when its value compresses at its address.
	if p < 0 {
		acc := aff.present & aff.comp & f.pa & f.pc &^ f.aa
		for m := acc; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			c.setAff(i, w, c.wordAddr(partner, w), aff.vals[w])
		}
		if prefCtr != nil {
			*prefCtr += int64(bits.OnesCount64(acc))
		}
	}

	c.tags.Touch(i)
	return i, ev
}

// evict copies slot i's primary line into the level's evicted scratch.
func (c *cpc) evict(i int) *evicted {
	f := &c.f[i]
	ev := &c.evScratch
	ev.tag = c.tags.Tag(i)
	ev.dirty = f.dirty
	ev.present, ev.comp = f.pa, f.pc
	for m := f.pa; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		ev.vals[w] = c.readPrimary(i, w, c.wordAddr(ev.tag, w))
	}
	return ev
}

// placeVictim salvages an evicted line's compressible words into its
// affiliated place — the frame whose primary line is the victim's partner
// — where that frame's primary words are present and compressible. Only a
// clean partial copy is kept (§3.3). It reports whether any word was
// placed.
func (c *cpc) placeVictim(ev *evicted) bool {
	t := c.tags.Lookup(ev.tag ^ c.mask)
	if t < 0 {
		return false
	}
	acc := ev.present & ev.comp & c.f[t].pa & c.f[t].pc
	for m := acc; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		c.setAff(t, w, c.wordAddr(ev.tag, w), ev.vals[w])
	}
	return acc != 0
}

// checkInvariants validates the structural invariants of the level.
func (c *cpc) checkInvariants(level string) error {
	if err := c.tags.Check(); err != nil {
		return fmt.Errorf("%s: %w", level, err)
	}
	for i := range c.f {
		if !c.tags.Valid(i) {
			continue
		}
		f, tag := &c.f[i], c.tags.Tag(i)
		if m := f.pc &^ f.pa; m != 0 {
			return fmt.Errorf("%s: line %#x word %d: VCP without PA", level, tag, bits.TrailingZeros64(m))
		}
		if m := f.aa &^ (f.pa & f.pc); m != 0 {
			return fmt.Errorf("%s: line %#x word %d: AA without compressible primary", level, tag, bits.TrailingZeros64(m))
		}
		for m := f.pc; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			a := c.wordAddr(tag, w)
			if v := c.readPrimary(i, w, a); !compressibleAt(v, a) {
				return fmt.Errorf("%s: line %#x word %d: compressed slot holds incompressible value %#x", level, tag, w, v)
			}
		}
		// Single-copy: if this frame holds affiliated words of tag^mask,
		// that line must not be primary-resident.
		if f.aa != 0 && c.tags.Lookup(tag^c.mask) >= 0 {
			return fmt.Errorf("%s: line %#x resident both as primary and as affiliated copy", level, tag^c.mask)
		}
	}
	return nil
}
