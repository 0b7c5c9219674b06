package cache

// SetGen positions the array's generation counter, so a test can drive
// the wraparound that 2^32 Resets would take to reach.
func (c *SetAssoc) SetGen(g uint32) { c.gen = g }

// HasStorage reports whether the array has allocated its tag storage.
func (c *SetAssoc) HasStorage() bool { return c.tags != nil }
