package seda

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/model"
	"repro/internal/rescache"
)

// Cached evaluation wrappers. The cache is consulted per (NPU,
// network) — one rescache entry per ConfigFingerprint — so a partial
// sweep that already evaluated some workloads reuses exactly those
// rows, and concurrent identical requests (e.g. two seda-serve clients
// asking for the same figure) coalesce onto one pipeline evaluation
// via the cache's singleflight layer.
//
// Entries store the rows' canonical JSON. JSON round-trips every field
// exactly (floats via shortest-form encoding), so rows served from the
// cache are indistinguishable from freshly computed ones and re-serialize
// to byte-identical output — see TestCachedRowsByteIdentical.

// runNetworkCachedCtx evaluates every scheme on one network, serving
// from (and filling) c. hit reports whether the result was served
// without a fresh pipeline evaluation by this call: from memory, from
// the disk layer, or by coalescing onto a concurrent identical
// evaluation. A nil cache degrades to RunNetworkOptsCtx.
//
// The context governs this caller's wait on the cache, not the
// evaluation itself: the pipeline runs under the cache's detached
// compute context (which the evaluation observes via
// RunNetworkOptsCtx), so a caller that cancels detaches immediately
// while an evaluation other callers still await keeps running — see
// rescache.GetOrComputeCtx.
func runNetworkCachedCtx(ctx context.Context, c *rescache.Cache, npu NPUConfig, net *model.Network) (rows []RunResult, hit bool, err error) {
	if c == nil {
		rows, err = RunNetworkOptsCtx(ctx, npu, net, SuiteOptions{})
		return rows, false, err
	}
	if err := npu.Validate(); err != nil {
		return nil, false, err
	}
	key := ConfigFingerprint(npu, net)
	compute := func(cctx context.Context) ([]byte, error) {
		fresh, err := RunNetworkOptsCtx(cctx, npu, net, SuiteOptions{})
		if err != nil {
			return nil, err
		}
		return json.Marshal(fresh)
	}
	// A blob that fails to decode into rows checkRows accepts can only
	// come from a damaged or foreign disk entry (freshly computed blobs
	// are our own marshaling of a full scheme set): evict it and
	// recompute once, so the cache self-heals instead of pinning the
	// corruption in memory.
	for attempt := 0; ; attempt++ {
		blob, hit, err := c.GetOrComputeCtx(ctx, key, compute)
		if err != nil {
			return nil, false, err
		}
		var decoded []RunResult
		derr := json.Unmarshal(blob, &decoded)
		if derr == nil {
			derr = checkRows(decoded, npu, net)
		}
		if derr != nil {
			if attempt == 0 {
				c.Evict(key)
				continue
			}
			return nil, false, fmt.Errorf("seda: corrupt cache entry %s: %w", key, derr)
		}
		return decoded, hit, nil
	}
}

// checkRows rejects decoded rows that cannot be RunNetworkOptsCtx's
// evaluation of net on npu. A disk entry's footer proves only that its
// bytes are whole, not that the process that sealed them wrote these
// rows, so the rows must name this workload, platform and Schemes() in
// order, share one data volume and compute time across schemes (both
// are scheme-independent), and carry the ratios their counts imply.
func checkRows(rows []RunResult, npu NPUConfig, net *model.Network) error {
	schemes := Schemes()
	if len(rows) != len(schemes) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(schemes))
	}
	want := make([]RunResult, len(rows))
	for k, r := range rows {
		if r.DataBytes != rows[0].DataBytes || r.ComputeCycles != rows[0].ComputeCycles {
			return fmt.Errorf("row %d: scheme-independent counts differ from row 0", k)
		}
		want[k] = RunResult{NPU: npu.Name, Network: net.Name, Scheme: schemes[k],
			DataBytes: r.DataBytes, MetaBytes: r.MetaBytes, ExecCycles: r.ExecCycles, ComputeCycles: r.ComputeCycles}
	}
	if err := normalize(want); err != nil {
		return err
	}
	if !slices.Equal(rows, want) {
		return fmt.Errorf("rows are not %s/%s's evaluation", npu.Name, net.Name)
	}
	return nil
}

// RunSuiteCachedCtx is RunSuiteOptsCtx with the per-network cache in
// front: each (NPU, network) pair is looked up independently, so a
// sweep only evaluates the workloads the cache has not seen. Uncached
// workloads run through a worker pool of the cache's compute slots
// (GOMAXPROCS when the cache does not bound computes), output is
// assembled in input order regardless of scheduling, and each workload
// waits on the cache with the cancellation semantics of
// runNetworkCachedCtx. A nil cache degrades to RunSuiteOptsCtx.
func RunSuiteCachedCtx(ctx context.Context, c *rescache.Cache, npu NPUConfig, nets []*model.Network) (*SuiteResult, error) {
	if c == nil {
		return RunSuiteOptsCtx(ctx, npu, nets, SuiteOptions{})
	}
	// A pool of exactly the slot count never sheds its own workloads.
	workers := c.ComputeSlots()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runSuiteWith(ctx, npu, nets, workers, func(ctx context.Context, n *model.Network) ([]RunResult, error) {
		rows, _, err := runNetworkCachedCtx(ctx, c, npu, n)
		return rows, err
	})
}
