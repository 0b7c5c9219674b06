package cache

import "fmt"

// This file keeps the original 24-byte-way SetAssoc as a reference model
// for the differential tests and FuzzSetAssoc, renamed but otherwise
// unchanged: every way carries its line, LRU stamp and a validity flag,
// the victim is the valid way with the smallest stamp, and Reset and
// Flush walk the whole array.

// refWay is one cache way: the resident line, its LRU stamp, and a validity
// flag, kept together so a set lookup walks one contiguous array instead
// of three parallel slices.
type refWay struct {
	line  Line
	age   uint64
	valid bool
}

// refSetAssoc is one set-associative cache array with true-LRU replacement.
// Insertion can be restricted to a way range, which is how way-partitioning
// defences are expressed. Each set's ways are contiguous in memory; every
// operation is a single pass over that span and allocates nothing.
type refSetAssoc struct {
	sets  int
	ways  int
	arr   []refWay
	stamp uint64
}

// newRefSetAssoc returns a cache array with the given geometry. sets must be a
// power of two (hardware indexes with address bits).
func newRefSetAssoc(sets, ways int) *refSetAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: non-positive way count %d", ways))
	}
	return &refSetAssoc{
		sets: sets,
		ways: ways,
		arr:  make([]refWay, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *refSetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *refSetAssoc) Ways() int { return c.ways }

func (c *refSetAssoc) checkSet(set int) {
	if set < 0 || set >= c.sets {
		panic(fmt.Sprintf("cache: set %d out of range [0,%d)", set, c.sets))
	}
}

// span returns the contiguous way array of set.
func (c *refSetAssoc) span(set int) []refWay {
	base := set * c.ways
	return c.arr[base : base+c.ways]
}

// Lookup reports whether line is present in set, updating LRU state on a
// hit.
func (c *refSetAssoc) Lookup(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			c.stamp++
			ws[i].age = c.stamp
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU state (a probe, not an
// access).
func (c *refSetAssoc) Contains(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			return true
		}
	}
	return false
}

// Insert places line into set, evicting the LRU line if the set is full.
// It returns the evicted line, if any. Insert does not check for prior
// presence; callers perform Lookup first.
func (c *refSetAssoc) Insert(set int, line Line) (evicted Line, wasEvicted bool) {
	return c.InsertWays(set, line, 0, c.ways)
}

// InsertWays is Insert restricted to the way range [wayLo, wayLo+wayN):
// the victim is chosen only among those ways. This models way-partitioned
// caches, where a security domain may allocate only into its own ways.
func (c *refSetAssoc) InsertWays(set int, line Line, wayLo, wayN int) (evicted Line, wasEvicted bool) {
	c.checkSet(set)
	if wayLo < 0 || wayN <= 0 || wayLo+wayN > c.ways {
		panic(fmt.Sprintf("cache: way range [%d,%d) outside [0,%d)", wayLo, wayLo+wayN, c.ways))
	}
	ws := c.span(set)[wayLo : wayLo+wayN]
	victim := -1
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if victim == -1 || ws[i].age < ws[victim].age {
			victim = i
		}
	}
	w := &ws[victim]
	if w.valid {
		evicted, wasEvicted = w.line, true
	}
	c.stamp++
	w.line = line
	w.valid = true
	w.age = c.stamp
	return evicted, wasEvicted
}

// Remove invalidates line in set if present, reporting whether it was.
func (c *refSetAssoc) Remove(set int, line Line) bool {
	c.checkSet(set)
	ws := c.span(set)
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			ws[i].valid = false
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines in set.
func (c *refSetAssoc) Occupancy(set int) int {
	c.checkSet(set)
	n := 0
	for _, w := range c.span(set) {
		if w.valid {
			n++
		}
	}
	return n
}

// Flush invalidates every line in the array.
func (c *refSetAssoc) Flush() {
	for i := range c.arr {
		c.arr[i].valid = false
	}
}

// Reset returns the array to its just-constructed state: every way
// invalid and the LRU stamp rewound to zero, so replacement decisions
// after a reset replay those of a fresh cache bit for bit.
func (c *refSetAssoc) Reset() {
	clear(c.arr)
	c.stamp = 0
}
