package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/failpoint"
)

// These tests pin the deployment shape the cluster router relies on:
// several Cache instances — in production, separate seda-serve
// processes plus the router's degraded-serving tier — sharing one
// -cache-dir. The disk directory is the only coordination channel, so
// the contracts under test are exactly the cross-process ones:
// atomic temp+rename publishes, integrity-footer verification on
// every read, and warm-hit handoff between instances that have never
// seen each other's keys in memory.

func sharedKey(i int) string {
	sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	return hex.EncodeToString(sum[:])
}

// TestSharedDirWarmHandoff: what one instance computes and publishes,
// a second instance on the same directory serves as a disk hit without
// recomputing — the router's affinity reroute after a replica death
// stays warm through the shared tier.
func TestSharedDirWarmHandoff(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	key := sharedKey(1)
	want := []byte("computed-by-a")
	if _, _, err := getOrCompute(a, key, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	got, hit, err := getOrCompute(b, key, func() ([]byte, error) {
		t.Error("instance B recomputed a key instance A already published")
		return nil, errors.New("unreachable")
	})
	if err != nil || !hit || string(got) != string(want) {
		t.Fatalf("handoff: got %q hit=%v err=%v", got, hit, err)
	}
	if st := b.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("instance B stats %+v, want DiskHits=1 Computes=0", st)
	}
}

// TestSharedDirConcurrentPublish hammers two instances with
// overlapping keys concurrently (run under -race in CI): every
// publish is temp+rename atomic, so no reader ever observes a torn
// entry — every lookup either misses or returns exactly the
// canonical bytes for its key, across instances.
func TestSharedDirConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	const keys = 32
	blob := func(i int) []byte { return []byte(fmt.Sprintf("value-%02d-%s", i, sharedKey(i))) }

	var wg sync.WaitGroup
	var torn atomic.Int64
	for _, c := range []*Cache{a, b} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				for round := 0; round < 8; round++ {
					for i := 0; i < keys; i++ {
						got, _, err := getOrCompute(c, sharedKey(i), func() ([]byte, error) { return blob(i), nil })
						if err != nil {
							t.Error(err)
							return
						}
						if string(got) != string(blob(i)) {
							torn.Add(1)
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d lookups returned non-canonical bytes", n)
	}
	// Both instances may have raced the same publish; neither may have
	// recorded a read error — a concurrent rename must look like either
	// a miss or a complete entry, never a torn one.
	for name, c := range map[string]*Cache{"a": a, "b": b} {
		if st := c.Stats(); st.DiskReadErrors != 0 {
			t.Fatalf("instance %s stats %+v, want DiskReadErrors=0", name, st)
		}
	}
}

// TestSharedDirSelfHeal: an entry corrupted on disk (as the other
// process's reader would see after bit rot or a torn write on a weak
// filesystem) fails the integrity footer on instance B, degrades to a
// miss, recomputes, and republishes a sealed entry that instance A
// then reads back clean — corruption self-heals across the fleet and
// corrupted bytes are never served.
func TestSharedDirSelfHeal(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	key := sharedKey(2)
	want := []byte("precious-result")
	if _, _, err := getOrCompute(a, key, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte on disk, leaving the footer stale.
	path := filepath.Join(dir, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recomputed := false
	got, hit, err := getOrCompute(b, key, func() ([]byte, error) {
		recomputed = true
		return want, nil
	})
	if err != nil || hit || !recomputed || string(got) != string(want) {
		t.Fatalf("self-heal: got %q hit=%v recomputed=%v err=%v", got, hit, recomputed, err)
	}
	if st := b.Stats(); st.DiskReadErrors != 1 || st.Computes != 1 {
		t.Fatalf("instance B stats %+v, want DiskReadErrors=1 Computes=1", st)
	}

	// Instance B republished a sealed entry; a fresh instance (cold
	// memory, like A after restart) reads it back as a clean disk hit.
	fresh, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := get(fresh, key)
	if !ok || string(got) != string(want) {
		t.Fatalf("read-back after heal: %q ok=%v", got, ok)
	}
}

// TestSharedDirCorruptFailpoint drives the same self-heal loop through
// the chaos grammar: the corrupt failpoint damages every read on one
// instance, so that instance always recomputes, while its publishes
// stay sealed and the unaffected instance keeps serving clean hits.
func TestSharedDirCorruptFailpoint(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	a, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	key := sharedKey(3)
	want := []byte("sealed-entry")
	if _, _, err := getOrCompute(a, key, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// The failpoint is process-global, but only instance B performs a
	// disk read here (A would hit memory), so it models B's torn reads.
	if err := failpoint.Enable(FailpointDiskCorrupt, "corrupt"); err != nil {
		t.Fatal(err)
	}
	got, hit, err := getOrCompute(b, key, func() ([]byte, error) { return want, nil })
	if err != nil || hit || string(got) != string(want) {
		t.Fatalf("corrupt-read lookup: got %q hit=%v err=%v", got, hit, err)
	}
	if st := b.Stats(); st.DiskReadErrors != 1 || st.Computes != 1 {
		t.Fatalf("instance B stats %+v, want DiskReadErrors=1 Computes=1", st)
	}
	failpoint.Disable(FailpointDiskCorrupt)

	// B's recompute republished a sealed entry; A evicts its memory copy
	// and still reads the shared entry clean.
	a.Evict(key)
	if _, _, err := getOrCompute(a, key, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	// Evict removed the disk entry too, so A recomputed and republished:
	// either way the final read must verify.
	got, ok := get(b, key)
	if !ok || string(got) != string(want) {
		t.Fatalf("final read: %q ok=%v", got, ok)
	}
}

// TestCacheOnlyInstance pins the router's graceful-degradation tier: a
// CacheOnly instance serves what the fleet already published (memory
// then disk) but answers a full miss with ErrCacheOnly instead of
// evaluating — it holds no compute slots and can never be saturated.
func TestCacheOnlyInstance(t *testing.T) {
	dir := t.TempDir()
	replica, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := New(Options{Dir: dir, CacheOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	published := sharedKey(4)
	want := []byte("from-the-fleet")
	if _, _, err := getOrCompute(replica, published, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	got, hit, err := getOrCompute(degraded, published, func() ([]byte, error) {
		t.Error("cache-only instance ran a compute")
		return nil, errors.New("unreachable")
	})
	if err != nil || !hit || string(got) != string(want) {
		t.Fatalf("degraded hit: got %q hit=%v err=%v", got, hit, err)
	}

	_, _, err = getOrCompute(degraded, sharedKey(5), func() ([]byte, error) {
		t.Error("cache-only instance ran a compute on a miss")
		return nil, errors.New("unreachable")
	})
	if !errors.Is(err, ErrCacheOnly) {
		t.Fatalf("cache-only miss: err=%v, want ErrCacheOnly", err)
	}
	st := degraded.Stats()
	if st.Errors != 0 || st.Shed != 0 || st.Computes != 0 || st.DiskHits != 1 {
		t.Fatalf("degraded stats %+v, want Errors=0 Shed=0 Computes=0 DiskHits=1", st)
	}
	// A later publish by the fleet turns the same miss into a hit.
	if _, _, err := getOrCompute(replica, sharedKey(5), func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := getOrCompute(degraded, sharedKey(5), nil); err != nil || !hit {
		t.Fatalf("degraded after publish: hit=%v err=%v", hit, err)
	}
}
