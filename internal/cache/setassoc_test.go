package cache

import (
	"math/rand/v2"
	"testing"
)

// fuzzLines is the line pool the differential tests draw from. It
// includes line 0 (tag 1) and lines near the top of the physical range.
var fuzzLines = [...]Line{
	0, 1, 2, 3, 4, 5, 8, 9, 12, 17, 1<<57 + 3,
	6, 7, 10, 11, 13, 14, 15, 16, 18, 19, 20, 1 << 40, 1<<57 + 4,
}

// fuzzGeoms are the array shapes every op sequence is driven through,
// each with the prefix of fuzzLines it draws from. The 4×3 array sees
// constant conflicts; the 2×16 one can fill a whole set, so way 15 and the
// top nibble of the recency order take part; the 4×1 one is direct-mapped.
var fuzzGeoms = [...]struct{ sets, ways, lines int }{
	{4, 3, 11},
	{2, 16, 24},
	{4, 1, 11},
}

// FuzzSetAssoc drives the same operation sequence through SetAssoc and
// the reference model, for every shape in fuzzGeoms, and requires
// identical results at every step.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 0, 4, 2, 0, 8, 2, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 4})
	f.Add([]byte{3, 1, 2, 0x21, 3, 1, 3, 0x10, 6, 0, 0, 2, 1, 3, 5, 1, 3, 1, 1, 3})
	f.Add([]byte{2, 2, 2, 2, 2, 6, 2, 2, 10, 7, 0, 0, 4, 2, 2, 1, 2, 6})
	// A 16-way seed: fill set 0 past its capacity, hit two lines so the
	// order reshuffles, allocate into way 15 alone, then reset and refill.
	var wide []byte
	for a := byte(0); a < 20; a++ {
		wide = append(wide, 2, 0, a)
	}
	wide = append(wide, 0, 0, 7, 0, 0, 19, 3, 0, 0xF0, 5, 0, 0, 2, 0, 21, 6, 0, 0, 2, 0, 3, 5, 0, 0)
	f.Add(wide)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range fuzzGeoms {
			driveSetAssoc(t, g.sets, g.ways, fuzzLines[:g.lines], ops)
		}
	})
}

// TestSetAssocMatchesReferenceAllWays drives random op sequences through
// a two-set array of every associativity from 1 to 16 against the
// reference model. Inserts and lookups dominate and resets are rare, so
// sets spend most of the run full and every way takes part in evictions.
func TestSetAssocMatchesReferenceAllWays(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ops := make([]byte, 3*4000)
	for ways := 1; ways <= 16; ways++ {
		for i := 0; i < len(ops); i += 3 {
			var op byte
			switch r := rng.IntN(100); {
			case r < 45:
				op = 2 // Insert
			case r < 75:
				op = 0 // Lookup
			case r < 99:
				op = byte(rng.IntN(6)) // any op but the resets
			default:
				op = byte(6 + rng.IntN(2))
			}
			ops[i], ops[i+1], ops[i+2] = op, byte(rng.Uint32()), byte(rng.Uint32())
		}
		driveSetAssoc(t, 2, ways, fuzzLines[:], ops)
	}
}

// driveSetAssoc runs ops, three bytes each (op, set, arg), through a
// sets×ways SetAssoc and the reference model and fails on the first
// divergence: hits, presence probes, eviction victims, removals, per-set
// occupancies and the array's line count, across Resets. The reference's
// Flush is checked against Reset, which covers it.
func driveSetAssoc(t *testing.T, sets, ways int, lines []Line, ops []byte) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%d×%d: "+format, append([]any{sets, ways}, args...)...)
	}
	got, want := NewSetAssoc(sets, ways), newRefSetAssoc(sets, ways)
	for i := 0; i+2 < len(ops); i += 3 {
		op, set := ops[i]%8, int(ops[i+1])%sets
		arg := ops[i+2]
		line := lines[int(arg)%len(lines)]
		switch op {
		case 0:
			if g, w := got.Lookup(set, line), want.Lookup(set, line); g != w {
				fail("op %d: Lookup(%d, %d) = %v, reference %v", i/3, set, line, g, w)
			}
		case 1:
			if g, w := got.Contains(set, line), want.Contains(set, line); g != w {
				fail("op %d: Contains(%d, %d) = %v, reference %v", i/3, set, line, g, w)
			}
		case 2:
			ge, gw := got.Insert(set, line)
			we, ww := want.Insert(set, line)
			if ge != we || gw != ww {
				fail("op %d: Insert(%d, %d) evicted (%d,%v), reference (%d,%v)", i/3, set, line, ge, gw, we, ww)
			}
		case 3:
			// The upper bits of arg pick the way range: lo in
			// [0,ways), n in [1, ways-lo].
			lo := int(arg>>4) % ways
			n := 1 + int(arg>>6)%(ways-lo)
			ge, gw := got.InsertWays(set, line, lo, n)
			we, ww := want.InsertWays(set, line, lo, n)
			if ge != we || gw != ww {
				fail("op %d: InsertWays(%d, %d, %d, %d) evicted (%d,%v), reference (%d,%v)", i/3, set, line, lo, n, ge, gw, we, ww)
			}
		case 4:
			if g, w := got.Remove(set, line), want.Remove(set, line); g != w {
				fail("op %d: Remove(%d, %d) = %v, reference %v", i/3, set, line, g, w)
			}
		case 5:
			if g, w := got.Occupancy(set), want.Occupancy(set); g != w {
				fail("op %d: Occupancy(%d) = %d, reference %d", i/3, set, g, w)
			}
		case 6:
			got.Reset()
			want.Flush()
		case 7:
			got.Reset()
			want.Reset()
		}
		n := 0
		for s := 0; s < sets; s++ {
			n += want.Occupancy(s)
		}
		if got.Len() != n {
			fail("op %d: Len() = %d, reference holds %d lines", i/3, got.Len(), n)
		}
	}
	for set := 0; set < sets; set++ {
		if g, w := got.Occupancy(set), want.Occupancy(set); g != w {
			fail("final Occupancy(%d) = %d, reference %d", set, g, w)
		}
		for _, l := range lines {
			if g, w := got.Contains(set, l), want.Contains(set, l); g != w {
				fail("final Contains(%d, %d) = %v, reference %v", set, l, g, w)
			}
		}
	}
}

// TestSetAssocGenerationWrap fills a set, leaves it untouched while the
// generation counter runs to its last value, and requires the Reset that
// wraps the counter to empty it: a lazily-cleared set stamped with an old
// generation would otherwise read as current and resurrect its lines.
func TestSetAssocGenerationWrap(t *testing.T) {
	t.Run("reset", func(t *testing.T) {
		c := NewSetAssoc(4, 3)
		for _, l := range []Line{0, 4, 8} {
			c.Insert(0, l)
		}
		c.SetGen(^uint32(0))
		c.Insert(1, 1) // touched in the last generation before the wrap
		c.Reset()
		if c.Len() != 0 {
			t.Errorf("Len() = %d after the generation wrapped", c.Len())
		}
		for set := 0; set < c.Sets(); set++ {
			if n := c.Occupancy(set); n != 0 {
				t.Errorf("set %d holds %d lines after the generation wrapped", set, n)
			}
		}
		for _, l := range []Line{0, 1, 4, 8} {
			if c.Contains(int(l)%c.Sets(), l) {
				t.Errorf("line %d survived the generation wrap", l)
			}
		}
		// The array keeps working in the new generation.
		if _, was := c.Insert(0, 12); was {
			t.Error("insert into an emptied set evicted a line")
		}
		if !c.Lookup(0, 12) {
			t.Error("line inserted after the wrap is missing")
		}
	})
}

// TestSetAssocAllocatesOnFirstInsert checks that an array costs nothing
// until it is filled: probes and Resets of a fresh array allocate
// nothing, the first insert allocates its storage, and a Reset keeps that
// storage for the next fill.
func TestSetAssocAllocatesOnFirstInsert(t *testing.T) {
	c := NewSetAssoc(1024, 16)
	if n := testing.AllocsPerRun(10, func() {
		c.Lookup(3, 7)
		c.Contains(3, 7)
		c.Remove(3, 7)
		c.Occupancy(3)
		c.Reset()
	}); n != 0 {
		t.Errorf("probing an empty array allocated %v times per run", n)
	}
	if c.HasStorage() {
		t.Fatal("an array nothing was inserted into holds tag storage")
	}
	c.Insert(3, 7)
	if !c.HasStorage() || !c.Lookup(3, 7) {
		t.Fatal("first insert did not allocate and store the line")
	}
	if n := testing.AllocsPerRun(10, func() {
		c.Reset()
		c.Insert(3, 7)
	}); n != 0 {
		t.Errorf("refilling a reset array allocated %v times per run", n)
	}
}
