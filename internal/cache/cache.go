// Package cache provides a set-associative, write-back, write-allocate
// cache simulator with LRU replacement. The memory-protection
// simulator uses two instances per SGX-class protection unit — a 16 KB
// version-number cache and an 8 KB MAC cache (paper §IV-A) — to filter
// security-metadata accesses before they become off-chip DRAM traffic.
//
// The simulator is purely a hit/miss/writeback accounting model: it
// tracks tags, dirty bits and recency, not data contents (metadata
// values live in the protection unit's functional model).
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Ways      int // associativity
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	return nil
}

// Stats accumulates access outcomes.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions (each costs one line write to DRAM)
	Fills      uint64 // line fills (each costs one line read from DRAM)
}

// Cache is a set-associative LRU cache simulator. Way w of set s is
// slot s*Ways+w of two flat arrays: the line's tag, and its state,
// lastUse<<1 | dirty, where lastUse is the tick of the line's latest
// access. Ticks start at 1, so state 0 marks an invalid way, and since
// every access has its own tick, the smallest state in a set is its
// least recently used line.
type Cache struct {
	cfg   Config
	tags  []uint64
	state []uint64
	nsets int
	tick  uint64
	stats Stats
}

// New builds a cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, lines),
		state: make([]uint64, lines),
		nsets: lines / cfg.Ways,
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Result reports what a single access did.
type Result struct {
	Hit       bool
	Fill      bool // line was fetched from DRAM
	Writeback bool // a dirty victim was written back to DRAM
}

// Access performs one cache access at byte address addr. write marks
// the line dirty (write-allocate: a write miss fills the line first).
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	var dirty uint64
	if write {
		dirty = 1
	}
	tags, state, tag := c.set(addr)
	for i := range tags {
		if state[i] != 0 && tags[i] == tag {
			state[i] = c.tick<<1 | state[i]&1 | dirty
			c.stats.Hits++
			return Result{Hit: true}
		}
	}

	// Miss: pick an invalid way or the LRU victim.
	c.stats.Misses++
	victim := 0
	for i := range state {
		if state[i] == 0 {
			victim = i
			break
		}
		if state[i] < state[victim] {
			victim = i
		}
	}
	res := Result{Fill: true}
	if state[victim]&1 != 0 { // valid and dirty
		res.Writeback = true
		c.stats.Writebacks++
	}
	c.stats.Fills++
	tags[victim], state[victim] = tag, c.tick<<1|dirty
	return res
}

// set returns the ways of addr's set and addr's tag.
func (c *Cache) set(addr uint64) (tags, state []uint64, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	lo := int(lineAddr%uint64(c.nsets)) * c.cfg.Ways
	hi := lo + c.cfg.Ways
	return c.tags[lo:hi], c.state[lo:hi], lineAddr / uint64(c.nsets)
}

// Flush writes back all dirty lines and invalidates the cache,
// returning the number of writebacks performed. Used at layer/model
// boundaries when the protection unit drains its metadata state.
func (c *Cache) Flush() uint64 {
	var wb uint64
	for i, st := range c.state {
		if st&1 != 0 {
			wb++
			c.stats.Writebacks++
		}
		c.state[i] = 0
	}
	return wb
}

// Contains reports whether addr's line is currently cached (without
// perturbing LRU state or statistics).
func (c *Cache) Contains(addr uint64) bool {
	tags, state, tag := c.set(addr)
	for i := range tags {
		if state[i] != 0 && tags[i] == tag {
			return true
		}
	}
	return false
}
