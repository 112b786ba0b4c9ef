package seda

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rescache"
)

func newTestCache(t *testing.T) *rescache.Cache {
	t.Helper()
	c, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigFingerprintStableAndDistinct(t *testing.T) {
	let, ncf := model.ByName("let"), model.ByName("ncf")
	a := ConfigFingerprint(EdgeNPU(), let)
	if b := ConfigFingerprint(EdgeNPU(), let); a != b {
		t.Fatalf("fingerprint unstable: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not hex sha256", a)
	}
	distinct := map[string]string{a: "edge/let"}
	for name, fp := range map[string]string{
		"server/let": ConfigFingerprint(ServerNPU(), let),
		"edge/ncf":   ConfigFingerprint(EdgeNPU(), ncf),
	} {
		if prev, dup := distinct[fp]; dup {
			t.Fatalf("fingerprint collision: %s and %s", prev, name)
		}
		distinct[fp] = name
	}
	// The NPU's memory system is part of the fingerprint even when the
	// compute array matches.
	tweaked := EdgeNPU()
	tweaked.BandwidthB *= 2
	if ConfigFingerprint(tweaked, let) == a {
		t.Fatal("bandwidth change not reflected in fingerprint")
	}
}

func TestRunNetworkCachedMatchesFresh(t *testing.T) {
	c := newTestCache(t)
	npu, net := EdgeNPU(), model.ByName("let")

	fresh, err := RunNetworkOptsCtx(context.Background(), npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := runNetworkCachedCtx(context.Background(), c, npu, net, DefaultSuiteOptions())
	if err != nil || hit {
		t.Fatalf("first cached run: hit=%v err=%v", hit, err)
	}
	assertRowsEqual(t, got, fresh)

	again, hit, err := runNetworkCachedCtx(context.Background(), c, npu, net, DefaultSuiteOptions())
	if err != nil || !hit {
		t.Fatalf("second cached run: hit=%v err=%v", hit, err)
	}
	assertRowsEqual(t, again, fresh)
	if st := c.Stats(); st.Computes != 1 {
		t.Fatalf("stats = %+v, want 1 compute", st)
	}
}

// Identical concurrent evaluations must coalesce onto exactly one
// pipeline run — the serving layer's core guarantee. Runs under
// `go test -race -short`.
func TestRunNetworkCachedSingleflight(t *testing.T) {
	c := newTestCache(t)
	npu, net := EdgeNPU(), model.ByName("let")
	const callers = 8

	var wg sync.WaitGroup
	results := make([][]RunResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = runNetworkCachedCtx(context.Background(), c, npu, net, DefaultSuiteOptions())
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Fatalf("%d concurrent identical sweeps ran %d pipeline evaluations, want 1 (stats %+v)",
			callers, st.Computes, st)
	}
	for i := 1; i < callers; i++ {
		assertRowsEqual(t, results[i], results[0])
	}
}

func TestRunSuiteCachedPartialReuse(t *testing.T) {
	c := newTestCache(t)
	npu := EdgeNPU()
	let, ncf := model.ByName("let"), model.ByName("ncf")

	// Prime the cache with one workload, then sweep two: only the
	// uncached one evaluates.
	if _, _, err := runNetworkCachedCtx(context.Background(), c, npu, let, DefaultSuiteOptions()); err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuiteCachedCtx(context.Background(), c, npu, []*model.Network{let, ncf}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Computes != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 computes (let, ncf) and 1 hit (let reused)", st)
	}

	want, err := RunSuiteOptsCtx(context.Background(), npu, []*model.Network{let, ncf}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := suite.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cached suite JSON differs from fresh suite JSON")
	}
}

func TestRunSuiteCachedNilCacheFallsBack(t *testing.T) {
	npu := EdgeNPU()
	nets := []*model.Network{model.ByName("let")}
	suite, err := RunSuiteCachedCtx(context.Background(), nil, npu, nets, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Rows["let"]) != len(Schemes()) {
		t.Fatalf("rows = %d, want %d", len(suite.Rows["let"]), len(Schemes()))
	}
}

func TestRunNetworkCachedDiskWarmStart(t *testing.T) {
	dir := t.TempDir()
	npu, net := EdgeNPU(), model.ByName("let")

	c1, err := rescache.New(rescache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := runNetworkCachedCtx(context.Background(), c1, npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}

	// A new process (fresh cache, same dir) serves from disk.
	c2, err := rescache.New(rescache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, hit, err := runNetworkCachedCtx(context.Background(), c2, npu, net, DefaultSuiteOptions())
	if err != nil || !hit {
		t.Fatalf("warm start: hit=%v err=%v", hit, err)
	}
	assertRowsEqual(t, warm, fresh)
	if st := c2.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("stats = %+v, want pure disk hit", st)
	}
}

func assertRowsEqual(t *testing.T, got, want []RunResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// A damaged disk entry must not wedge the config: the lookup evicts
// the corrupt blob, recomputes, and repairs both cache layers. Both
// unparseable blobs and parseable-but-wrong-shape blobs (e.g. "[]")
// must heal.
func TestRunNetworkCachedHealsCorruptDiskEntry(t *testing.T) {
	for _, garbage := range []string{"{not json", "[]", "null"} {
		t.Run(garbage, func(t *testing.T) { testHealsCorruptEntry(t, garbage) })
	}
}

func testHealsCorruptEntry(t *testing.T, garbage string) {
	dir := t.TempDir()
	npu, net := EdgeNPU(), model.ByName("let")
	key := ConfigFingerprint(npu, net)
	if err := os.WriteFile(filepath.Join(dir, key), []byte(garbage), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := rescache.New(rescache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := runNetworkCachedCtx(context.Background(), c, npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatalf("corrupt entry not healed: %v", err)
	}
	want, err := RunNetworkOptsCtx(context.Background(), npu, net, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, rows, want)
	if st := c.Stats(); st.Computes != 1 {
		t.Fatalf("stats = %+v, want 1 recompute", st)
	}

	// The repaired disk entry serves a fresh process cleanly.
	c2, err := rescache.New(rescache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again, hit, err := runNetworkCachedCtx(context.Background(), c2, npu, net, DefaultSuiteOptions())
	if err != nil || !hit {
		t.Fatalf("repaired entry: hit=%v err=%v", hit, err)
	}
	assertRowsEqual(t, again, want)
}
