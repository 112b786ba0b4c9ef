package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newCache(t *testing.T, size, line, ways int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: size, LineBytes: line, Ways: ways})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
		{SizeBytes: 1024, LineBytes: 0, Ways: 4},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1000, LineBytes: 64, Ways: 4},  // size not multiple of line
		{SizeBytes: 1024, LineBytes: 64, Ways: 10}, // lines not divisible by ways
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
	good := Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 4}
	if _, err := New(good); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := newCache(t, 1024, 64, 2)
	r := c.Access(0x100, false)
	if r.Hit || !r.Fill {
		t.Errorf("first access: %+v, want miss+fill", r)
	}
	r = c.Access(0x100, false)
	if !r.Hit {
		t.Errorf("second access: %+v, want hit", r)
	}
	// Same line, different byte.
	r = c.Access(0x13f, false)
	if !r.Hit {
		t.Errorf("same-line access: %+v, want hit", r)
	}
	// Next line.
	r = c.Access(0x140, false)
	if r.Hit {
		t.Errorf("next-line access: %+v, want miss", r)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct test of LRU order: 2-way cache, one set (size = 2 lines).
	c := newCache(t, 128, 64, 2)
	c.Access(0*64, false) // A
	c.Access(1*64, false) // B -> set full, A is LRU
	c.Access(0*64, false) // touch A, B becomes LRU
	c.Access(2*64, false) // C evicts B
	if !c.Contains(0 * 64) {
		t.Error("A evicted despite being MRU")
	}
	if c.Contains(1 * 64) {
		t.Error("B not evicted despite being LRU")
	}
	if !c.Contains(2 * 64) {
		t.Error("C not resident after fill")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := newCache(t, 128, 64, 1) // direct-mapped, 2 sets
	c.Access(0, true)            // dirty line in set 0
	r := c.Access(128, false)    // same set (128/64=2, 2%2=0), clean fill evicts dirty
	if !r.Writeback {
		t.Errorf("evicting dirty line: %+v, want writeback", r)
	}
	r = c.Access(256, false) // evicts the clean line
	if r.Writeback {
		t.Errorf("evicting clean line: %+v, want no writeback", r)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
}

func TestWriteAllocate(t *testing.T) {
	c := newCache(t, 1024, 64, 2)
	r := c.Access(0x40, true)
	if r.Hit || !r.Fill {
		t.Errorf("write miss: %+v, want fill (write-allocate)", r)
	}
	if !c.Contains(0x40) {
		t.Error("written line not resident")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := newCache(t, 128, 64, 1)
	c.Access(0, false) // clean fill
	c.Access(0, true)  // write hit -> dirty
	r := c.Access(128, false)
	if !r.Writeback {
		t.Error("write-hit line not written back on eviction")
	}
}

func TestFlush(t *testing.T) {
	c := newCache(t, 1024, 64, 2)
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	wb := c.Flush()
	if wb != 2 {
		t.Errorf("flush writebacks = %d, want 2", wb)
	}
	if c.Contains(0) || c.Contains(64) || c.Contains(128) {
		t.Error("lines resident after flush")
	}
	// Flushing an empty cache is a no-op.
	if wb := c.Flush(); wb != 0 {
		t.Errorf("second flush writebacks = %d, want 0", wb)
	}
}

func TestStatsConservation(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c, err := New(Config{SizeBytes: 2048, LineBytes: 64, Ways: 4})
		if err != nil {
			return false
		}
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats()
		return s.Hits+s.Misses == uint64(len(addrs)) &&
			s.Fills == s.Misses &&
			s.Writebacks <= s.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullyAssociativeWorkingSet(t *testing.T) {
	// 8 lines fully associative: a working set of 8 lines must keep
	// hitting after warm-up regardless of addresses.
	c := newCache(t, 512, 64, 8)
	addrs := []uint64{0, 64, 128, 192, 4096, 8192, 100 * 64, 555 * 64}
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.stats = Stats{} // keep the contents, zero the counters
	for round := 0; round < 10; round++ {
		for _, a := range addrs {
			if r := c.Access(a, false); !r.Hit {
				t.Fatalf("round %d addr %#x missed in warm fully-assoc cache", round, a)
			}
		}
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Errorf("warm stats %+v, want hits only", st)
	}
}

func TestStreamingEvictsEverything(t *testing.T) {
	// A pure streaming pattern larger than the cache should produce
	// ~0% hit rate on a second pass that starts beyond capacity.
	c := newCache(t, 1024, 64, 4) // 16 lines
	for i := 0; i < 64; i++ {
		c.Access(uint64(i*64), false)
	}
	// Re-walk the first 16 lines: all evicted by the tail of the stream.
	c.stats = Stats{} // keep the contents, zero the counters
	for i := 0; i < 16; i++ {
		if r := c.Access(uint64(i*64), false); r.Hit {
			t.Errorf("line %d unexpectedly survived streaming eviction", i)
		}
	}
}

// refCache is the cache as it was before its lines were packed into
// flat tag and state arrays: one struct per line, one slice per set.
// It is the oracle TestCacheMatchesReference holds Cache to.
type refCache struct {
	lineBytes uint64
	sets      [][]refLine
	tick      uint64
	stats     Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newRefCache(cfg Config) *refCache {
	sets := make([][]refLine, cfg.SizeBytes/cfg.LineBytes/cfg.Ways)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{lineBytes: uint64(cfg.LineBytes), sets: sets}
}

func (c *refCache) access(addr uint64, write bool) Result {
	c.tick++
	lineAddr := addr / c.lineBytes
	ways := c.sets[lineAddr%uint64(len(c.sets))]
	tag := lineAddr / uint64(len(c.sets))
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			ways[i].dirty = ways[i].dirty || write
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := Result{Fill: true}
	if ways[victim].valid && ways[victim].dirty {
		res.Writeback = true
		c.stats.Writebacks++
	}
	c.stats.Fills++
	ways[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	return res
}

func (c *refCache) flush() uint64 {
	var wb uint64
	for _, ways := range c.sets {
		for i := range ways {
			if ways[i].valid && ways[i].dirty {
				wb++
				c.stats.Writebacks++
			}
			ways[i] = refLine{}
		}
	}
	return wb
}

// TestCacheMatchesReference is a seeded differential property: over
// random geometries (power-of-two set counts and not) and random
// streams with flushes, Cache gives the reference cache's Result on
// every access, the same Contains answers, flush counts and Stats.
func TestCacheMatchesReference(t *testing.T) {
	prop := func(lineLog, waysRaw, setsRaw uint8, seed int64) bool {
		line, ways, sets := 1<<(lineLog%7), int(waysRaw%8)+1, int(setsRaw%24)+1
		cfg := Config{SizeBytes: line * ways * sets, LineBytes: line, Ways: ways}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg)
		rng := rand.New(rand.NewSource(seed))
		span := uint64(line * ways * sets * 3) // about three cachefuls
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Int63n(int64(span)))
			if rng.Intn(50) == 0 {
				addr = rng.Uint64() // far tags too
			}
			if rng.Intn(500) == 0 {
				if got, want := c.Flush(), ref.flush(); got != want {
					t.Logf("%+v step %d: Flush %d, want %d", cfg, i, got, want)
					return false
				}
			}
			write := rng.Intn(3) == 0
			if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
				t.Logf("%+v step %d: Access(%#x, %v) = %+v, want %+v", cfg, i, addr, write, got, want)
				return false
			}
			if probe := uint64(rng.Int63n(int64(span))); c.Contains(probe) != refContains(ref, probe) {
				t.Logf("%+v step %d: Contains(%#x) disagrees", cfg, i, probe)
				return false
			}
		}
		return c.Stats() == ref.stats && c.Flush() == ref.flush() && c.Stats() == ref.stats
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(26))}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func refContains(c *refCache, addr uint64) bool {
	lineAddr := addr / c.lineBytes
	tag := lineAddr / uint64(len(c.sets))
	for _, l := range c.sets[lineAddr%uint64(len(c.sets))] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
