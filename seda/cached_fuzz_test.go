package seda

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/rescache"
)

// FuzzDiskEntry writes arbitrary bytes as the disk-tier entry of a
// cached evaluation's key, as they are and sealed with a valid SHA-256
// footer (which rescache's integrity check accepts, so the bytes reach
// seda's decoder). Replicas share one cache directory, so these are
// bytes another process wrote. The evaluation must either count a miss
// and compute the rows afresh, or serve the entry, and the rows must
// equal a fresh computation either way: never a panic, never wrong
// rows.
func FuzzDiskEntry(f *testing.F) {
	ctx := context.Background()
	npu, net := EdgeNPU(), model.ByName("let")
	key := ConfigFingerprint(npu, net)
	fresh, err := RunNetworkOptsCtx(ctx, npu, net, DefaultSuiteOptions())
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(fresh)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{good, []byte("{not json"), []byte("[]"), []byte("null"), nil} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, blob []byte, seal bool) {
		entry := blob
		if seal {
			sum := sha256.Sum256(blob)
			entry = append(slices.Clip(blob), sum[:]...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := rescache.New(rescache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rows, hit, err := runNetworkCachedCtx(ctx, c, npu, net)
		if err != nil {
			t.Fatalf("cached evaluation failed: %v", err)
		}
		if !slices.Equal(rows, fresh) {
			t.Fatalf("served rows differ from a fresh computation:\n got %+v\nwant %+v", rows, fresh)
		}
		st := c.Stats()
		if hit && (!seal || st.DiskHits != 1 || st.Computes != 0) {
			t.Fatalf("hit on an entry sealed=%v: stats %+v, want one disk hit and no compute", seal, st)
		}
		if !hit && st.Computes != 1 {
			t.Fatalf("miss: stats %+v, want exactly one compute", st)
		}
	})
}
