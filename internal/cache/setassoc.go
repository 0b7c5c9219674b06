// Package cache implements the functional cache hierarchy of the evaluation
// platform (Table 1): private 8-way 32 KiB L1s, private inclusive 16-way
// 1 MiB L2s, and a shared non-inclusive 11-way sliced LLC distributed over
// the mesh tiles. It provides the primitives the paper's workloads are
// built from: eviction lists that bypass the L2 (Listing 1), pointer-chase
// lists (Listing 2), timed loads (Listing 3), clflush, and the defensive
// variants (randomized indexing, way/slice partitioning) evaluated in
// Table 3.
//
// The package is purely functional: it decides hit levels and evictions.
// Latency is assigned by internal/timing from the hit level, the mesh hop
// count, and the current uncore frequency.
package cache

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Line is a physical cache-line address (the physical byte address shifted
// right by 6).
type Line uint64

// SetAssoc is one set-associative cache array with true-LRU replacement.
// Insertion can be restricted to a way range, which is how way-partitioning
// defences are expressed. Every operation touches one set's tags and one
// 16-byte setState and allocates nothing after the array's first insert.
//
// tags stores a resident line as line+1, so tag 0 marks an invalid way and
// the lookups scan tags alone. Each set's setState holds its recency order
// (way ids, most recent first), a valid bitmask and the generation it was
// initialised in. Reset is O(1): it bumps the array's generation, and a
// set whose state lags it reads as empty until an insert reinitialises it.
// The tag and state arrays are allocated on the first insert, so an array
// nothing fills costs only its header.
type SetAssoc struct {
	sets  int
	ways  int
	tags  []uint64   // sets*ways, nil until the first insert
	state []setState // one per set, nil until the first insert
	gen   uint32     // current generation; never 0
	n     int        // valid lines in the whole array
}

// setState is one set's replacement state.
//
// order lists the set's way ids, 4 bits each, with the most recently used
// way in bits 0-3. Only the relative order of valid ways is meaningful: a
// way moves to the front whenever it is filled or hit, which is exactly
// when the stamp-per-way model gave it a new, largest stamp, so the LRU
// valid way here is the one with the smallest stamp there. An invalid
// way's position is never read. Positions at or above the array's way
// count keep the ids of identityOrder, which match no way.
type setState struct {
	order uint64
	gen   uint32 // generation the set was last initialised in; 0 = never
	valid uint16 // bit w set when way w holds a line
}

// maxWays is the widest associativity a 64-bit order word can rank.
const maxWays = 16

// identityOrder ranks way p at position p. Every set starts from it.
const identityOrder = 0xFEDCBA9876543210

// nibbles has 1 in every 4-bit lane; multiplying broadcasts a way id.
const nibbles = 0x1111111111111111

// NewSetAssoc returns a cache array with the given geometry. sets must be a
// power of two (hardware indexes with address bits) and ways at most 16.
// No tag storage is allocated until the first insert.
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	if ways <= 0 || ways > maxWays {
		panic(fmt.Sprintf("cache: way count %d outside [1,%d]", ways, maxWays))
	}
	return &SetAssoc{sets: sets, ways: ways, gen: 1}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Len returns the number of valid lines in the whole array, in O(1).
func (c *SetAssoc) Len() int { return c.n }

func (c *SetAssoc) checkSet(set int) {
	if set < 0 || set >= c.sets {
		panic(fmt.Sprintf("cache: set %d out of range [0,%d)", set, c.sets))
	}
}

// tagOf encodes a resident line. Physical line addresses are byte
// addresses shifted right by 6, so line+1 never wraps to the invalid tag.
func tagOf(line Line) uint64 { return uint64(line) + 1 }

// live returns set's state, or nil when the set holds nothing: the array
// was never filled or the set was last initialised before the latest
// Reset.
func (c *SetAssoc) live(set int) *setState {
	if c.state == nil {
		return nil
	}
	s := &c.state[set]
	if s.gen != c.gen {
		return nil
	}
	return s
}

// setTags returns the tag span of set.
func (c *SetAssoc) setTags(set int) []uint64 {
	base := set * c.ways
	return c.tags[base : base+c.ways]
}

// Lookup reports whether line is present in set, making it the set's most
// recently used line on a hit.
func (c *SetAssoc) Lookup(set int, line Line) bool {
	c.checkSet(set)
	s := c.live(set)
	if s == nil {
		return false
	}
	tag := tagOf(line)
	for i, t := range c.setTags(set) {
		if t == tag {
			s.touch(i)
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU state (a probe, not an
// access).
func (c *SetAssoc) Contains(set int, line Line) bool {
	c.checkSet(set)
	if c.live(set) == nil {
		return false
	}
	tag := tagOf(line)
	for _, t := range c.setTags(set) {
		if t == tag {
			return true
		}
	}
	return false
}

// Insert places line into set, evicting the LRU line if the set is full.
// It returns the evicted line, if any. Insert does not check for prior
// presence; callers perform Lookup first.
func (c *SetAssoc) Insert(set int, line Line) (evicted Line, wasEvicted bool) {
	return c.InsertWays(set, line, 0, c.ways)
}

// InsertWays is Insert restricted to the way range [wayLo, wayLo+wayN):
// the victim is chosen only among those ways. This models way-partitioned
// caches, where a security domain may allocate only into its own ways.
// The victim is the lowest invalid way in the range, else the range's
// least-recently-used way.
func (c *SetAssoc) InsertWays(set int, line Line, wayLo, wayN int) (evicted Line, wasEvicted bool) {
	c.checkSet(set)
	if wayLo < 0 || wayN <= 0 || wayLo+wayN > c.ways {
		panic(fmt.Sprintf("cache: way range [%d,%d) outside [0,%d)", wayLo, wayLo+wayN, c.ways))
	}
	if c.tags == nil {
		c.tags = make([]uint64, c.sets*c.ways)
		c.state = make([]setState, c.sets)
	}
	ts := c.setTags(set)
	s := &c.state[set]
	if s.gen != c.gen {
		clear(ts)
		*s = setState{order: identityOrder, gen: c.gen}
	}
	var way int
	if free := uint16((1<<wayN-1)<<wayLo) &^ s.valid; free != 0 {
		way = bits.TrailingZeros16(free)
		s.valid |= 1 << way
		c.n++
	} else {
		way = s.lru(wayLo, wayN, c.ways)
		evicted, wasEvicted = Line(ts[way]-1), true
	}
	ts[way] = tagOf(line)
	s.touch(way)
	return evicted, wasEvicted
}

// lru returns the least recently used way in [lo, lo+n), scanning the
// order word from its LRU end. For the full range that is the first
// position looked at.
func (s *setState) lru(lo, n, ways int) int {
	for p := ways - 1; ; p-- {
		w := int(s.order >> (4 * p) & 0xF)
		if uint(w-lo) < uint(n) {
			return w
		}
	}
}

// touch moves way to the front of the recency order.
func (s *setState) touch(way int) {
	o := s.order
	if int(o&0xF) == way {
		return
	}
	// x has a zero nibble exactly where way sits. The borrow trick flags
	// the lowest zero nibble exactly (only lanes above a zero can be
	// falsely flagged), and every id occurs once, so sh is the bit
	// offset of way's nibble.
	x := o ^ uint64(way)*nibbles
	sh := bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3)) &^ 3
	below := o & (1<<sh - 1)
	above := o &^ (1<<(sh+4) - 1)
	s.order = above | below<<4 | uint64(way)
}

// Remove invalidates line in set if present, reporting whether it was.
func (c *SetAssoc) Remove(set int, line Line) bool {
	c.checkSet(set)
	s := c.live(set)
	if s == nil {
		return false
	}
	tag := tagOf(line)
	ts := c.setTags(set)
	for i, t := range ts {
		if t == tag {
			ts[i] = 0
			s.valid &^= 1 << i
			c.n--
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines in set.
func (c *SetAssoc) Occupancy(set int) int {
	c.checkSet(set)
	s := c.live(set)
	if s == nil {
		return 0
	}
	return bits.OnesCount16(s.valid)
}

// Reset returns the array to its just-constructed state: every way
// invalid, so replacement decisions after a reset replay those of a fresh
// cache bit for bit. It moves to a new generation, which leaves every set
// stale, and keeps the tag storage for reuse. When the counter wraps a set
// untouched for 2^32 generations would read as current, so the wrap marks
// every set stale eagerly instead.
func (c *SetAssoc) Reset() {
	c.n = 0
	c.gen++
	if c.gen == 0 {
		c.gen = 1
		clear(c.state)
	}
}
