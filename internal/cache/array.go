package cache

import (
	"fmt"

	"cppcache/internal/mach"
)

// Array is the tag store every set-associative structure in the simulator
// shares: for each slot a valid bit, the line number it holds and a
// true-LRU stamp, in one flat slice indexed set*assoc + way. Tag lookup,
// LRU order and victim choice live here and nowhere else; a design keeps
// its per-line payload (data words, dirty bit, CPP's flag masks) in its
// own slices under the same slot index.
//
// Stamps come from one tick per array and are only ever compared within
// it, so any two designs that touch slots in the same order make the same
// replacement decisions.
type Array struct {
	assoc   int
	setMask mach.Addr
	slots   []slot
	tick    uint64
}

type slot struct {
	tag   mach.Addr // line number, not just the tag bits
	valid bool
	used  uint64 // LRU stamp: the array's tick at the slot's last touch
}

// NewArray builds an empty array of sets x assoc slots. sets must be a
// power of two.
func NewArray(sets, assoc int) Array {
	return Array{assoc: assoc, setMask: mach.Addr(sets - 1), slots: make([]slot, sets*assoc)}
}

// Len returns the number of slots.
func (a *Array) Len() int { return len(a.slots) }

// Set returns the first slot of line n's set; the set occupies slots
// Set(n) through Set(n)+assoc-1.
func (a *Array) Set(n mach.Addr) int { return int(n&a.setMask) * a.assoc }

// Lookup returns the slot holding line n, or -1. It does not touch LRU
// state.
func (a *Array) Lookup(n mach.Addr) int {
	base := a.Set(n)
	for i := base; i < base+a.assoc; i++ {
		if s := &a.slots[i]; s.valid && s.tag == n {
			return i
		}
	}
	return -1
}

// Place scans line n's set once. It returns n's slot and true when n is
// resident, else the slot n would replace and false: the first invalid
// way, or failing that the first least recently used one.
func (a *Array) Place(n mach.Addr) (int, bool) {
	base := a.Set(n)
	victim, free := base, false
	for i := base; i < base+a.assoc; i++ {
		s := &a.slots[i]
		switch {
		case !s.valid:
			if !free {
				victim, free = i, true
			}
		case s.tag == n:
			return i, true
		case !free && s.used < a.slots[victim].used:
			victim = i
		}
	}
	return victim, false
}

// Touch marks slot i most recently used.
func (a *Array) Touch(i int) {
	a.tick++
	a.slots[i].used = a.tick
}

// Install makes slot i hold line n, most recently used.
func (a *Array) Install(i int, n mach.Addr) {
	a.slots[i].tag = n
	a.slots[i].valid = true
	a.Touch(i)
}

// Invalidate empties slot i.
func (a *Array) Invalidate(i int) { a.slots[i].valid = false }

// Valid reports whether slot i holds a line.
func (a *Array) Valid(i int) bool { return a.slots[i].valid }

// Tag returns the line number slot i holds; meaningful only when valid.
func (a *Array) Tag(i int) mach.Addr { return a.slots[i].tag }

// Stamp returns slot i's LRU stamp: a larger stamp is a more recent use.
// Designs whose replacement unit spans several slots (LCC's paired
// frames) rank their units by it.
func (a *Array) Stamp(i int) uint64 { return a.slots[i].used }

// Check validates the tag store: every valid slot sits in its line's set,
// and no line is resident twice.
func (a *Array) Check() error {
	for i := range a.slots {
		s := &a.slots[i]
		if !s.valid {
			continue
		}
		if base := a.Set(s.tag); i < base || i >= base+a.assoc {
			return fmt.Errorf("line %#x in wrong set %d", s.tag, i/a.assoc)
		}
		if a.Lookup(s.tag) != i {
			return fmt.Errorf("duplicate line %#x in set %d", s.tag, i/a.assoc)
		}
	}
	return nil
}
