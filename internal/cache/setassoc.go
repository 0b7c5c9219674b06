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

import "fmt"

// LineSize is the cache line size in bytes.
const LineSize = 64

// Line is a physical cache-line address (the physical byte address shifted
// right by 6).
type Line uint64

// SetAssoc is one set-associative cache array with true-LRU replacement.
// Insertion can be restricted to a way range, which is how way-partitioning
// defences are expressed. Every operation is a single pass over one set's
// ways and allocates nothing.
//
// A way is 16 bytes held in two parallel arrays. tags stores a resident
// line as line+1, so tag 0 marks an invalid way and the lookups scan tags
// alone. stamps stores each way's LRU stamp; a stamp is read only for a
// valid way, and every insert writes its way's stamp, so an invalidated
// way's stale stamp is never seen. Reset and Flush are O(1): they bump a
// generation counter, and a set whose gens entry lags it has its tags
// cleared the first time any operation touches it.
type SetAssoc struct {
	sets   int
	ways   int
	tags   []uint64
	stamps []uint64
	gens   []uint32
	gen    uint32
	stamp  uint64
	n      int // valid lines in the whole array
}

// NewSetAssoc returns a cache array with the given geometry. sets must be a
// power of two (hardware indexes with address bits).
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: non-positive way count %d", ways))
	}
	return &SetAssoc{
		sets:   sets,
		ways:   ways,
		tags:   make([]uint64, sets*ways),
		stamps: make([]uint64, sets*ways),
		gens:   make([]uint32, sets),
	}
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

// setTags returns the tag span of set, first clearing it when the set was
// last touched before the latest Reset or Flush.
func (c *SetAssoc) setTags(set int) []uint64 {
	base := set * c.ways
	ts := c.tags[base : base+c.ways]
	if c.gens[set] != c.gen {
		clear(ts)
		c.gens[set] = c.gen
	}
	return ts
}

// Lookup reports whether line is present in set, updating LRU state on a
// hit.
func (c *SetAssoc) Lookup(set int, line Line) bool {
	c.checkSet(set)
	tag := tagOf(line)
	for i, t := range c.setTags(set) {
		if t == tag {
			c.stamp++
			c.stamps[set*c.ways+i] = c.stamp
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU state (a probe, not an
// access).
func (c *SetAssoc) Contains(set int, line Line) bool {
	c.checkSet(set)
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
// The victim is the first invalid way, else the first least-recently-used
// one.
func (c *SetAssoc) InsertWays(set int, line Line, wayLo, wayN int) (evicted Line, wasEvicted bool) {
	c.checkSet(set)
	if wayLo < 0 || wayN <= 0 || wayLo+wayN > c.ways {
		panic(fmt.Sprintf("cache: way range [%d,%d) outside [0,%d)", wayLo, wayLo+wayN, c.ways))
	}
	ts := c.setTags(set)[wayLo : wayLo+wayN]
	base := set*c.ways + wayLo
	ss := c.stamps[base : base+len(ts)]
	victim, lru := -1, 0
	for i, t := range ts {
		if t == 0 {
			victim = i
			break
		}
		if ss[i] < ss[lru] {
			lru = i
		}
	}
	if victim < 0 {
		victim = lru
		evicted, wasEvicted = Line(ts[lru]-1), true
	} else {
		c.n++
	}
	c.stamp++
	ts[victim] = tagOf(line)
	ss[victim] = c.stamp
	return evicted, wasEvicted
}

// Remove invalidates line in set if present, reporting whether it was.
func (c *SetAssoc) Remove(set int, line Line) bool {
	c.checkSet(set)
	tag := tagOf(line)
	ts := c.setTags(set)
	for i, t := range ts {
		if t == tag {
			ts[i] = 0
			c.n--
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines in set.
func (c *SetAssoc) Occupancy(set int) int {
	c.checkSet(set)
	n := 0
	for _, t := range c.setTags(set) {
		if t != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates every line in the array. The LRU stamp keeps
// counting, as it would across a wbinvd.
func (c *SetAssoc) Flush() {
	c.nextGen()
}

// Reset returns the array to its just-constructed state: every way
// invalid and the LRU stamp rewound to zero, so replacement decisions
// after a reset replay those of a fresh cache bit for bit.
func (c *SetAssoc) Reset() {
	c.nextGen()
	c.stamp = 0
}

// nextGen invalidates every set by moving to a new generation. When the
// counter wraps to 0 a set untouched for 2^32 generations would read as
// current, so the wrap clears every tag eagerly instead.
func (c *SetAssoc) nextGen() {
	c.n = 0
	c.gen++
	if c.gen == 0 {
		clear(c.tags)
		clear(c.gens)
	}
}
