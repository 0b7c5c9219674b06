package cache

import "testing"

// fuzzLines is the line pool FuzzSetAssoc draws from: few enough that the
// 4-set × 3-way array sees constant conflicts, and including line 0 (tag
// 1) and a line near the top of the physical range.
var fuzzLines = [...]Line{0, 1, 2, 3, 4, 5, 8, 9, 12, 17, 1<<57 + 3}

// FuzzSetAssoc drives the same operation sequence through SetAssoc and
// the reference model and requires identical results at every step:
// hits, presence probes, eviction victims, removals, per-set occupancies
// and the array's line count, across Flushes and Resets.
func FuzzSetAssoc(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 0, 4, 2, 0, 8, 2, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 4})
	f.Add([]byte{3, 1, 2, 0x21, 3, 1, 3, 0x10, 6, 0, 0, 2, 1, 3, 5, 1, 3, 1, 1, 3})
	f.Add([]byte{2, 2, 2, 2, 2, 6, 2, 2, 10, 7, 0, 0, 4, 2, 2, 1, 2, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const sets, ways = 4, 3
		got, want := NewSetAssoc(sets, ways), newRefSetAssoc(sets, ways)
		for i := 0; i+2 < len(ops); i += 3 {
			op, set := ops[i]%8, int(ops[i+1]%sets)
			arg := ops[i+2]
			line := fuzzLines[int(arg)%len(fuzzLines)]
			switch op {
			case 0:
				if g, w := got.Lookup(set, line), want.Lookup(set, line); g != w {
					t.Fatalf("op %d: Lookup(%d, %d) = %v, reference %v", i/3, set, line, g, w)
				}
			case 1:
				if g, w := got.Contains(set, line), want.Contains(set, line); g != w {
					t.Fatalf("op %d: Contains(%d, %d) = %v, reference %v", i/3, set, line, g, w)
				}
			case 2:
				ge, gw := got.Insert(set, line)
				we, ww := want.Insert(set, line)
				if ge != we || gw != ww {
					t.Fatalf("op %d: Insert(%d, %d) evicted (%d,%v), reference (%d,%v)", i/3, set, line, ge, gw, we, ww)
				}
			case 3:
				// The upper bits of arg pick the way range: lo in
				// [0,ways), n in [1, ways-lo].
				lo := int(arg>>4) % ways
				n := 1 + int(arg>>6)%(ways-lo)
				ge, gw := got.InsertWays(set, line, lo, n)
				we, ww := want.InsertWays(set, line, lo, n)
				if ge != we || gw != ww {
					t.Fatalf("op %d: InsertWays(%d, %d, %d, %d) evicted (%d,%v), reference (%d,%v)", i/3, set, line, lo, n, ge, gw, we, ww)
				}
			case 4:
				if g, w := got.Remove(set, line), want.Remove(set, line); g != w {
					t.Fatalf("op %d: Remove(%d, %d) = %v, reference %v", i/3, set, line, g, w)
				}
			case 5:
				if g, w := got.Occupancy(set), want.Occupancy(set); g != w {
					t.Fatalf("op %d: Occupancy(%d) = %d, reference %d", i/3, set, g, w)
				}
			case 6:
				got.Flush()
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
				t.Fatalf("op %d: Len() = %d, reference holds %d lines", i/3, got.Len(), n)
			}
		}
		for set := 0; set < sets; set++ {
			if g, w := got.Occupancy(set), want.Occupancy(set); g != w {
				t.Fatalf("final Occupancy(%d) = %d, reference %d", set, g, w)
			}
			for _, l := range fuzzLines {
				if g, w := got.Contains(set, l), want.Contains(set, l); g != w {
					t.Fatalf("final Contains(%d, %d) = %v, reference %v", set, l, g, w)
				}
			}
		}
	})
}

// TestSetAssocGenerationWrap fills a set in generation 0, leaves it
// untouched while the generation counter runs to its last value, and
// requires the Reset or Flush that wraps the counter back to 0 to empty
// it: a lazily-cleared set stamped with generation 0 would otherwise
// read as current and resurrect its lines.
func TestSetAssocGenerationWrap(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*SetAssoc)
	}{
		{"reset", (*SetAssoc).Reset},
		{"flush", (*SetAssoc).Flush},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSetAssoc(4, 3)
			for _, l := range []Line{0, 4, 8} {
				c.Insert(0, l)
			}
			c.SetGen(^uint32(0))
			c.Insert(1, 1) // touched in the last generation before the wrap
			tc.wrap(c)
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
}
