package rescache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// The chaos suite: every fault the failpoint sites can inject, plus
// direct corruption and cancellation races, each asserting the cache's
// core invariants — no deadlock (tests finish), no leaked compute slot
// (Inflight drains to zero and the slot is reusable), no corrupted
// bytes served, and every waiter gets an error rather than a hang.

// waitInflightZero polls until no computation is in flight. Detach on
// cancellation is immediate for the caller but asynchronous for the
// compute goroutine, so tests that assert slot recovery poll briefly.
func waitInflightZero(t *testing.T, c *Cache) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compute slot leaked: stats %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func newDiskCache(t *testing.T, slots int) *Cache {
	t.Helper()
	c, err := New(Options{Dir: t.TempDir(), MaxInflightComputes: slots})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChaosDiskReadError(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("payload")
	if _, _, err := getOrCompute(c1, "aa11", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A second cache on the same dir would normally disk-hit; with the
	// read failpoint armed it degrades to a recompute and counts the
	// error.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(FailpointDiskGet, "error"); err != nil {
		t.Fatal(err)
	}
	blob, hit, err := getOrCompute(c2, "aa11", func() ([]byte, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(blob, want) {
		t.Fatalf("blob=%q hit=%v err=%v, want fresh recompute of %q", blob, hit, err, want)
	}
	st := c2.Stats()
	if st.DiskReadErrors == 0 || st.Computes != 1 {
		t.Fatalf("stats %+v, want DiskReadErrors>0 Computes=1", st)
	}

	// Disarmed, the disk layer works again.
	failpoint.Reset()
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if blob, hit, err := getOrCompute(c3, "aa11", nil); err != nil || !hit || !bytes.Equal(blob, want) {
		t.Fatalf("after disarm: blob=%q hit=%v err=%v", blob, hit, err)
	}
}

func TestChaosDiskWriteError(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(FailpointDiskPut, "error"); err != nil {
		t.Fatal(err)
	}
	want := []byte("memory only")
	blob, _, err := getOrCompute(c, "bb22", func() ([]byte, error) { return want, nil })
	if err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("blob=%q err=%v", blob, err)
	}
	if st := c.Stats(); st.DiskWriteErrors != 1 {
		t.Fatalf("stats %+v, want DiskWriteErrors=1", st)
	}
	// The write never landed: the entry is served from memory here but
	// invisible to a fresh cache on the same dir.
	if blob, hit, _ := getOrCompute(c, "bb22", nil); !hit || !bytes.Equal(blob, want) {
		t.Fatalf("memory entry lost: blob=%q hit=%v", blob, hit)
	}
	failpoint.Reset()
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := get(c2, "bb22"); ok {
		t.Fatal("failed disk write still produced a disk entry")
	}
}

// TestChaosCorruptBlobNeverServed is the integrity-footer invariant
// under an injected torn read: the corrupted bytes must never reach a
// caller — the entry is rejected, deleted, recomputed and resealed.
func TestChaosCorruptBlobNeverServed(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("the one true result")
	if _, _, err := getOrCompute(c1, "cc33", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(FailpointDiskCorrupt, "corrupt"); err != nil {
		t.Fatal(err)
	}
	blob, hit, err := getOrCompute(c2, "cc33", func() ([]byte, error) { return want, nil })
	if err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("blob=%q err=%v, corrupted bytes must not surface", blob, err)
	}
	if hit {
		t.Fatal("corrupt disk entry served as a hit")
	}
	st := c2.Stats()
	if st.DiskReadErrors == 0 {
		t.Fatalf("stats %+v, want the corruption counted", st)
	}

	// The recompute rewrote a sealed entry; with the fault disarmed a
	// fresh cache disk-hits the good bytes.
	failpoint.Reset()
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if blob, hit, err := getOrCompute(c3, "cc33", nil); err != nil || !hit || !bytes.Equal(blob, want) {
		t.Fatalf("self-heal failed: blob=%q hit=%v err=%v", blob, hit, err)
	}
}

// TestDiskFooterDetectsRealCorruption flips bytes on disk directly (no
// failpoint): the SHA-256 footer must reject the entry, delete the
// file, and let the recompute self-heal.
func TestDiskFooterDetectsRealCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("precious result bytes")
	if _, _, err := getOrCompute(c, "dd44", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dd44")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(want)+footerLen {
		t.Fatalf("disk entry %dB, want payload %dB + footer %dB", len(raw), len(want), footerLen)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"payload-flip": func(b []byte) []byte { out := append([]byte(nil), b...); out[2] ^= 0xff; return out },
		"footer-flip":  func(b []byte) []byte { out := append([]byte(nil), b...); out[len(out)-1] ^= 0xff; return out },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"too-short":    func([]byte) []byte { return []byte{1, 2, 3} },
	} {
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		before := c2.Stats().DiskReadErrors
		blob, hit, err := getOrCompute(c2, "dd44", func() ([]byte, error) { return want, nil })
		if err != nil || hit || !bytes.Equal(blob, want) {
			t.Fatalf("%s: blob=%q hit=%v err=%v", name, blob, hit, err)
		}
		if c2.Stats().DiskReadErrors <= before {
			t.Fatalf("%s: corruption not counted", name)
		}
		// The recompute resealed the file; restore the corrupt copy for
		// the next subcase only via the loop's WriteFile.
		if sealed, err := os.ReadFile(path); err != nil || !bytes.Equal(sealed, raw) {
			t.Fatalf("%s: entry not resealed: %v", name, err)
		}
	}
}

// TestChaosSlowComputeCancelFreesSlot: a caller abandoning a slow
// compute must get ctx.Err() immediately, and the compute — cancelled
// once no one wants it — must free its slot for the next key.
func TestChaosSlowComputeCancelFreesSlot(t *testing.T) {
	defer failpoint.Reset()
	c := newDiskCache(t, 1)
	if err := failpoint.Enable(FailpointCompute, "sleep(30s)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCtx(ctx, "ee55", func(context.Context) ([]byte, error) {
			return []byte("never"), nil
		})
		done <- err
	}()
	// Let the lead goroutine take the slot, then abandon it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	waitInflightZero(t, c)

	// The slot is reusable: a different key computes without shedding.
	failpoint.Reset()
	if _, _, err := getOrCompute(c, "ff66", func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatalf("slot not reusable: %v", err)
	}
}

// TestChaosComputePanic: a panicking compute is recovered, counted,
// and every coalesced waiter gets an error wrapping ErrComputePanic —
// none hang, nothing is cached.
func TestChaosComputePanic(t *testing.T) {
	defer failpoint.Reset()
	c := newDiskCache(t, 1)
	if err := failpoint.Enable(FailpointCompute, "panic(chaos)"); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := getOrCompute(c, "0a0b", func() ([]byte, error) { return []byte("x"), nil })
			errs <- err
		}()
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrComputePanic) {
				t.Fatalf("waiter err = %v, want ErrComputePanic", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter hung on a panicked compute")
		}
	}
	waitInflightZero(t, c)
	st := c.Stats()
	if st.Panics == 0 || st.Entries != 0 {
		t.Fatalf("stats %+v, want Panics>0 and nothing cached", st)
	}

	// The cache recovers fully once the fault is gone.
	failpoint.Reset()
	if blob, _, err := getOrCompute(c, "0a0b", func() ([]byte, error) { return []byte("ok"), nil }); err != nil || string(blob) != "ok" {
		t.Fatalf("post-panic compute: blob=%q err=%v", blob, err)
	}
}

// TestChaosCancelAtPoint: the EnableFunc form cancels the caller the
// moment the compute starts — the caller detaches, the abandoned
// compute context is cancelled, and nothing deadlocks or leaks.
func TestChaosCancelAtPoint(t *testing.T) {
	defer failpoint.Reset()
	c := newDiskCache(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failpoint.EnableFunc(FailpointCompute, func(fctx context.Context) error {
		cancel() // the only caller departs...
		<-fctx.Done()
		return fctx.Err() // ...so the compute context must cancel
	})
	_, _, err := c.GetOrComputeCtx(ctx, "1c1d", func(context.Context) ([]byte, error) {
		return []byte("never"), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want Canceled", err)
	}
	waitInflightZero(t, c)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled compute cached a result: %+v", st)
	}
}

// TestComputeTimeoutFreesSlot: Options.ComputeTimeout bounds a stuck
// evaluation; its waiters see DeadlineExceeded and the slot frees.
func TestComputeTimeoutFreesSlot(t *testing.T) {
	c, err := New(Options{MaxInflightComputes: 1, ComputeTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetOrComputeCtx(context.Background(), "2e2f", func(ctx context.Context) ([]byte, error) {
		<-ctx.Done() // a well-behaved but stuck compute
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	waitInflightZero(t, c)
	if _, _, err := getOrCompute(c, "3a3b", func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatalf("slot not reusable after timeout: %v", err)
	}
}

// TestLeaderCancelDoesNotPoisonFollowers: the caller that started the
// computation departs; a follower that coalesced onto it still gets
// the result, because the compute runs detached and only cancels when
// ALL waiters leave.
func TestLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	begun := make(chan struct{})
	release := make(chan struct{})
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCtx(lctx, "4c4d", func(ctx context.Context) ([]byte, error) {
			close(begun)
			select {
			case <-release:
				return []byte("survived"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		leaderErr <- err
	}()
	<-begun

	followerRes := make(chan []byte, 1)
	followerErr := make(chan error, 1)
	go func() {
		blob, _, err := c.GetOrComputeCtx(context.Background(), "4c4d", nil)
		followerRes <- blob
		followerErr <- err
	}()
	// Wait until the follower has coalesced, then cancel the leader.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	close(release)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower err = %v — leader's cancellation poisoned it", err)
	}
	if blob := <-followerRes; string(blob) != "survived" {
		t.Fatalf("follower blob = %q", blob)
	}
}

// TestFollowerDetachLeavesLeader: the mirror case — a follower departs
// and the leader still completes normally.
func TestFollowerDetachLeavesLeader(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	begun := make(chan struct{})
	release := make(chan struct{})
	leaderRes := make(chan []byte, 1)
	go func() {
		blob, _, _ := getOrCompute(c, "5e5f", func() ([]byte, error) {
			close(begun)
			<-release
			return []byte("leader result"), nil
		})
		leaderRes <- blob
	}()
	<-begun

	fctx, fcancel := context.WithCancel(context.Background())
	fdone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCtx(fctx, "5e5f", nil)
		fdone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	fcancel()
	if err := <-fdone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want Canceled", err)
	}
	close(release)
	if blob := <-leaderRes; string(blob) != "leader result" {
		t.Fatalf("leader blob = %q", blob)
	}
}

// TestEvictRacesGetOrCompute hammers Evict against GetOrComputeCtx
// (with intermittent caller cancellation) on one key. Run under -race;
// the assertions are liveness (no hang), slot accounting (Inflight
// drains to zero, the capacity stays usable) and LRU consistency (a
// final lookup computes or hits cleanly).
func TestEvictRacesGetOrCompute(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MaxInflightComputes: 2})
	if err != nil {
		t.Fatal(err)
	}
	const key = "6a6b"
	want := []byte("stable value")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g {
				case 0:
					c.Evict(key)
				case 1:
					ctx, cancel := context.WithCancel(context.Background())
					if i%2 == 0 {
						cancel() // pre-cancelled caller
					}
					blob, _, err := c.GetOrComputeCtx(ctx, key, func(context.Context) ([]byte, error) { return want, nil })
					if err == nil && !bytes.Equal(blob, want) {
						t.Errorf("goroutine %d: blob %q", g, blob)
					}
					cancel()
				default:
					blob, _, err := getOrCompute(c, key, func() ([]byte, error) { return want, nil })
					if err != nil && !errors.Is(err, ErrSaturated) {
						t.Errorf("goroutine %d: err %v", g, err)
					} else if err == nil && !bytes.Equal(blob, want) {
						t.Errorf("goroutine %d: blob %q", g, blob)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	waitInflightZero(t, c)
	blob, _, err := getOrCompute(c, key, func() ([]byte, error) { return want, nil })
	if err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("cache unusable after race: blob=%q err=%v", blob, err)
	}
	if n := c.Stats().Entries; n > DefaultMaxEntries {
		t.Fatalf("LRU inconsistent: %d entries", n)
	}
}

// TestPreCancelledCtx: a caller whose context is already dead gets
// ctx.Err() without computing or taking a slot.
func TestPreCancelledCtx(t *testing.T) {
	c, err := New(Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, _, err = c.GetOrComputeCtx(ctx, "7c7d", func(context.Context) ([]byte, error) {
		ran = true
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("err=%v ran=%v", err, ran)
	}
	// Memory hits are served even under a dead context (no waiting
	// involved) — matches the "hit before ctx check" fast path.
	if _, _, err := getOrCompute(c, "8e8f", func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if blob, hit, err := c.GetOrComputeCtx(ctx, "8e8f", nil); err != nil || !hit || string(blob) != "v" {
		t.Fatalf("hit under dead ctx: blob=%q hit=%v err=%v", blob, hit, err)
	}
}
