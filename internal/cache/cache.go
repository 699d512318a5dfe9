// Package cache holds the simulator's one set-associative tag store and
// the conventional cache built on it.
//
// Array owns tag lookup, true-LRU order and victim choice for every
// configuration: Cache (the caches, prefetch buffers and victim cache of
// BC, BCC, HAC, BCP and VC) keeps a line of words per slot, CPP's
// compression cache (internal/core) keeps per-word PA/VCP/AA flag masks
// and compressed storage, and LCC's paired-frame L1 (internal/hier) keeps
// two line slots per frame. Cache itself is write-back and write-allocate
// with per-line data storage.
package cache

import (
	"fmt"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/memsys"
)

// Params sizes one cache.
type Params struct {
	SizeBytes int // total data capacity
	Assoc     int // ways per set; 1 = direct mapped
	LineBytes int // bytes per line
}

// Validate reports an error for impossible parameter combinations.
func (p Params) Validate() error {
	g := mach.LineGeom{LineBytes: p.LineBytes}
	if err := g.Validate(); err != nil {
		return err
	}
	if p.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", p.Assoc)
	}
	if p.SizeBytes <= 0 || p.SizeBytes%(p.LineBytes*p.Assoc) != 0 {
		return fmt.Errorf("cache: size %d is not a multiple of assoc*line = %d", p.SizeBytes, p.LineBytes*p.Assoc)
	}
	if sets := p.SizeBytes / (p.LineBytes * p.Assoc); !mach.IsPow2(sets) {
		return fmt.Errorf("cache: number of sets %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the parameters.
func (p Params) Sets() int { return p.SizeBytes / (p.LineBytes * p.Assoc) }

// Line is the payload of one resident cache line. Data holds the line's
// words; all lines of a cache share one backing slab.
type Line struct {
	Dirty bool
	Data  []mach.Word
	// CompHalves is tag metadata: the line's compressed size in 16-bit
	// half-words under the scheme installed with TrackCompression, kept
	// current across fills and word writes. 0 when untracked.
	CompHalves int
}

// Evicted describes a line displaced by Fill or Invalidate. Data aliases a
// scratch buffer owned by the cache: it is valid until that cache's next
// Fill or Invalidate, which is as long as every write-back path needs it.
// Callers that retain the words longer must copy them.
type Evicted struct {
	Valid bool
	Dirty bool
	Tag   mach.Addr // line number
	Data  []mach.Word
}

// Cache is a set-associative cache. The zero value is not usable; call New.
type Cache struct {
	p     Params
	geom  mach.LineGeom
	tags  Array
	lines []Line      // payload of slot i
	evBuf []mach.Word // backs Evicted.Data; see Evicted
	// comp, when set by TrackCompression, maintains each line's
	// CompHalves tag metadata.
	comp compress.Compressor
}

// New builds a cache, validating the parameters.
func New(p Params) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		p:    p,
		geom: mach.LineGeom{LineBytes: p.LineBytes},
		tags: NewArray(p.Sets(), p.Assoc),
	}
	words := c.geom.Words()
	c.evBuf = make([]mach.Word, words)
	c.lines = make([]Line, c.tags.Len())
	slab := make([]mach.Word, len(c.lines)*words)
	for i := range c.lines {
		c.lines[i].Data = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return c, nil
}

// TrackCompression installs a line-compression scheme whose per-line
// compressed size is maintained as tag metadata (Line.CompHalves) on
// every fill and word write, and aggregated by Occupancy. nil stops
// tracking.
func (c *Cache) TrackCompression(comp compress.Compressor) { c.comp = comp }

// refreshMeta recomputes the compression tag metadata of line l, whose
// base address is base, after its words changed.
func (c *Cache) refreshMeta(l *Line, base mach.Addr) {
	if c.comp != nil {
		l.CompHalves = c.comp.LineHalves(l.Data, base)
	}
}

// MustNew is New but panics on invalid parameters; for tests and constants.
func MustNew(p Params) *Cache {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns the construction parameters.
func (c *Cache) Params() Params { return c.p }

// Geom returns the cache's line geometry.
func (c *Cache) Geom() mach.LineGeom { return c.geom }

// SetOf returns the set index for a byte address.
func (c *Cache) SetOf(a mach.Addr) int {
	return c.tags.Set(c.geom.LineNumber(a)) / c.p.Assoc
}

// Probe returns the resident line holding address a, or nil. It does not
// touch LRU state, so it is safe for inspection.
func (c *Cache) Probe(a mach.Addr) *Line {
	if i := c.tags.Lookup(c.geom.LineNumber(a)); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Access is Probe plus an LRU touch on hit.
func (c *Cache) Access(a mach.Addr) *Line {
	i := c.tags.Lookup(c.geom.LineNumber(a))
	if i < 0 {
		return nil
	}
	c.tags.Touch(i)
	return &c.lines[i]
}

// Fill installs the line holding address a with the given words (copied),
// returning the displaced line if it was valid. data must have exactly one
// line's worth of words. The new line is installed clean and most recently
// used.
func (c *Cache) Fill(a mach.Addr, data []mach.Word) Evicted {
	if len(data) != c.geom.Words() {
		panic(fmt.Sprintf("cache: Fill with %d words, line holds %d", len(data), c.geom.Words()))
	}
	n := c.geom.LineNumber(a)
	i, hit := c.tags.Place(n)
	l := &c.lines[i]
	var ev Evicted
	if !hit && c.tags.Valid(i) {
		copy(c.evBuf, l.Data)
		ev = Evicted{Valid: true, Dirty: l.Dirty, Tag: c.tags.Tag(i), Data: c.evBuf}
	}
	c.tags.Install(i, n)
	l.Dirty = false
	copy(l.Data, data)
	c.refreshMeta(l, c.geom.NumberToAddr(n))
	return ev
}

// Invalidate drops the line holding address a if resident, returning its
// previous contents.
func (c *Cache) Invalidate(a mach.Addr) Evicted {
	i := c.tags.Lookup(c.geom.LineNumber(a))
	if i < 0 {
		return Evicted{}
	}
	l := &c.lines[i]
	copy(c.evBuf, l.Data)
	ev := Evicted{Valid: true, Dirty: l.Dirty, Tag: c.tags.Tag(i), Data: c.evBuf}
	c.tags.Invalidate(i)
	l.Dirty = false
	l.CompHalves = 0
	return ev
}

// ReadWord returns the word at address a if the line is resident.
func (c *Cache) ReadWord(a mach.Addr) (mach.Word, bool) {
	l := c.Access(a)
	if l == nil {
		return 0, false
	}
	return l.Data[c.geom.WordIndex(a)], true
}

// WriteWord updates the word at address a if the line is resident, marking
// the line dirty.
func (c *Cache) WriteWord(a mach.Addr, v mach.Word) bool {
	l := c.Access(a)
	if l == nil {
		return false
	}
	l.Data[c.geom.WordIndex(a)] = v
	l.Dirty = true
	c.refreshMeta(l, c.geom.LineAddr(a))
	return true
}

// WriteWords merges words into the resident line holding address a,
// starting at a's word, and marks the line dirty without touching LRU
// state: the write-back of a smaller line from the level above. It reports
// whether the line was resident.
func (c *Cache) WriteWords(a mach.Addr, words []mach.Word) bool {
	l := c.Probe(a)
	if l == nil {
		return false
	}
	copy(l.Data[c.geom.WordIndex(a):], words)
	l.Dirty = true
	c.refreshMeta(l, c.geom.LineAddr(a))
	return true
}

// Lines calls fn for every valid line with its base address. For
// diagnostics and tests.
func (c *Cache) Lines(fn func(base mach.Addr, l *Line)) {
	for i := range c.lines {
		if c.tags.Valid(i) {
			fn(c.geom.NumberToAddr(c.tags.Tag(i)), &c.lines[i])
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.Lines(func(mach.Addr, *Line) { n++ })
	return n
}

// Capacity returns the number of physical frames (sets x ways).
func (c *Cache) Capacity() int { return c.tags.Len() }

// Occupancy reports the cache's physical usage under the given label.
// Lines store words uncompressed, so every valid line occupies its full
// two half-words per word.
func (c *Cache) Occupancy(level string) memsys.Occupancy {
	lines, compHalves := 0, 0
	c.Lines(func(_ mach.Addr, l *Line) {
		lines++
		compHalves += l.CompHalves
	})
	words := c.geom.Words()
	return memsys.Occupancy{
		Level:      level,
		Lines:      lines,
		LineCap:    c.Capacity(),
		Halves:     lines * words * 2,
		HalfCap:    c.Capacity() * words * 2,
		CompHalves: compHalves,
	}
}
