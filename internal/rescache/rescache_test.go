package rescache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustNew(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetOrComputeMemoryHit(t *testing.T) {
	c := mustNew(t, Options{})
	key := "aa01"
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("v1"), nil }

	blob, hit, err := getOrCompute(c, key, compute)
	if err != nil || hit || string(blob) != "v1" {
		t.Fatalf("first lookup: blob=%q hit=%v err=%v", blob, hit, err)
	}
	blob, hit, err = getOrCompute(c, key, compute)
	if err != nil || !hit || string(blob) != "v1" {
		t.Fatalf("second lookup: blob=%q hit=%v err=%v", blob, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Computes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := mustNew(t, Options{})
	const workers = 16
	var computes atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	blobs := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, _, err := getOrCompute(c, "f00d", func() ([]byte, error) {
				computes.Add(1)
				<-release // hold the computation open so every worker arrives
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			blobs[i] = blob
		}(i)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent identical requests, want 1", n, workers)
	}
	for i, b := range blobs {
		if string(b) != "result" {
			t.Fatalf("worker %d got %q", i, b)
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Fatalf("stats.Computes = %d, want 1", st.Computes)
	}
	if st.Hits+st.Coalesced != workers-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", st.Hits+st.Coalesced, workers-1, st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after drain", st.Inflight)
	}
}

func TestDistinctKeysComputeIndependently(t *testing.T) {
	c := mustNew(t, Options{})
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("%02x", i)
		want := []byte(key + "-value")
		blob, hit, err := getOrCompute(c, key, func() ([]byte, error) { return want, nil })
		if err != nil || hit || !bytes.Equal(blob, want) {
			t.Fatalf("key %s: blob=%q hit=%v err=%v", key, blob, hit, err)
		}
	}
	if st := c.Stats(); st.Computes != 4 || st.Entries != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := mustNew(t, Options{})
	boom := errors.New("boom")
	_, _, err := getOrCompute(c, "0abc", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	blob, hit, err := getOrCompute(c, "0abc", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(blob) != "ok" {
		t.Fatalf("after error: blob=%q hit=%v err=%v", blob, hit, err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Computes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, Options{MaxEntries: 2})
	put := func(key string) {
		t.Helper()
		if _, _, err := getOrCompute(c, key, func() ([]byte, error) { return []byte(key), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("01")
	put("02")
	if _, ok := get(c, "01"); !ok { // touch 01 so 02 is the LRU victim
		t.Fatal("01 missing before eviction")
	}
	put("03")
	if _, ok := get(c, "02"); ok {
		t.Fatal("02 should have been evicted")
	}
	if _, ok := get(c, "01"); !ok {
		t.Fatal("01 should have survived (recently used)")
	}
	if c.Stats().Entries != 2 {
		t.Fatalf("len = %d, want 2", c.Stats().Entries)
	}
}

func TestDiskLayerWarmStart(t *testing.T) {
	dir := t.TempDir()
	c1 := mustNew(t, Options{Dir: dir})
	want := []byte("persisted")
	if _, _, err := getOrCompute(c1, "beef", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "beef")); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	// A fresh cache over the same directory serves the key without
	// computing — the warm-start path.
	c2 := mustNew(t, Options{Dir: dir})
	blob, hit, err := getOrCompute(c2, "beef", func() ([]byte, error) {
		t.Fatal("compute ran despite disk entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(blob, want) {
		t.Fatalf("warm start: blob=%q hit=%v err=%v", blob, hit, err)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Computes != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Promoted: the next lookup is a memory hit.
	if _, hit, _ := getOrCompute(c2, "beef", nil); !hit {
		t.Fatal("promoted entry not served from memory")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats after promotion = %+v", st)
	}
}

func TestDiskRejectsNonHexKeys(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Options{Dir: dir})
	if _, _, err := getOrCompute(c, "../escape", func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("non-hex key leaked onto disk: %v", ents)
	}
}

func TestEvictRemovesMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	c := mustNew(t, Options{Dir: dir})
	if _, _, err := getOrCompute(c, "dead", func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	c.Evict("dead")
	if _, ok := get(c, "dead"); ok {
		t.Fatal("entry survived eviction")
	}
	if _, err := os.Stat(filepath.Join(dir, "dead")); !os.IsNotExist(err) {
		t.Fatalf("disk entry survived eviction: %v", err)
	}
	// The next lookup recomputes and refills both layers.
	blob, hit, err := getOrCompute(c, "dead", func() ([]byte, error) { return []byte("v2"), nil })
	if err != nil || hit || string(blob) != "v2" {
		t.Fatalf("post-evict: blob=%q hit=%v err=%v", blob, hit, err)
	}
}

// TestBoundedComputesShed pins the load-shedding contract: with one
// compute slot, a distinct key arriving mid-computation sheds with
// ErrSaturated (uncached, so it retries cleanly later), while an
// identical key coalesces onto the in-flight computation without
// needing a slot. Hits never touch the bound either.
func TestBoundedComputesShed(t *testing.T) {
	c := mustNew(t, Options{MaxInflightComputes: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := getOrCompute(c, "aa01", func() ([]byte, error) {
			close(started)
			<-block
			return []byte("a"), nil
		})
		leader <- err
	}()
	<-started

	// Distinct key while the slot is held: shed, not queued.
	if _, _, err := getOrCompute(c, "bb02", func() ([]byte, error) {
		t.Error("shed compute ran")
		return nil, nil
	}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("distinct key during saturation: err=%v, want ErrSaturated", err)
	}

	// Identical key: coalesces (no slot needed), shares the result.
	coal := make(chan string, 1)
	go func() {
		blob, hit, err := getOrCompute(c, "aa01", func() ([]byte, error) {
			t.Error("coalesced caller computed")
			return nil, nil
		})
		if err != nil || !hit {
			t.Errorf("coalesced caller: hit=%v err=%v", hit, err)
		}
		coal <- string(blob)
	}()
	// Wait until the waiter has registered on the in-flight call (the
	// Coalesced counter increments before it blocks), so releasing the
	// leader below cannot race it into a plain memory hit.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			t.Fatal("coalesced waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}

	close(block)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := <-coal; got != "a" {
		t.Fatalf("coalesced blob %q, want %q", got, "a")
	}

	// The shed key was never cached; with the slot free it computes.
	blob, hit, err := getOrCompute(c, "bb02", func() ([]byte, error) { return []byte("b"), nil })
	if err != nil || hit || string(blob) != "b" {
		t.Fatalf("post-saturation retry: blob=%q hit=%v err=%v", blob, hit, err)
	}

	st := c.Stats()
	if st.Shed != 1 || st.Errors != 0 || st.Computes != 2 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want Shed=1 Errors=0 Computes=2 Coalesced=1", st)
	}

	// A memory hit during saturation is served normally.
	hold := make(chan struct{})
	begun := make(chan struct{})
	go func() {
		getOrCompute(c, "cc03", func() ([]byte, error) { //nolint:errcheck
			close(begun)
			<-hold
			return []byte("c"), nil
		})
	}()
	<-begun
	if blob, hit, err := getOrCompute(c, "aa01", nil); err != nil || !hit || string(blob) != "a" {
		t.Fatalf("hit during saturation: blob=%q hit=%v err=%v", blob, hit, err)
	}
	close(hold)
}
