package seda

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/rescache"
)

// Cached evaluation wrappers. The cache is consulted per (NPU,
// network, scheme subset) — one rescache entry per fingerprint, which
// for the full scheme set is ConfigFingerprint — so a partial
// sweep that already evaluated some workloads reuses exactly those
// rows, and concurrent identical requests (e.g. two seda-serve clients
// asking for the same figure) coalesce onto one pipeline evaluation
// via the cache's singleflight layer.
//
// Entries store the rows' canonical JSON. JSON round-trips every field
// exactly (floats via shortest-form encoding), so rows served from the
// cache are indistinguishable from freshly computed ones and re-serialize
// to byte-identical output — see TestCachedRowsByteIdentical.

// runNetworkCachedCtx evaluates a scheme subset (see checkSchemes) on
// one network, serving from (and filling) c under the subset's
// fingerprint. hit reports whether the result was served without a
// fresh pipeline evaluation by this call: from memory, from the disk
// layer, or by coalescing onto a concurrent identical evaluation. A
// nil cache degrades to runNetwork.
//
// The context governs this caller's wait on the cache, not the
// evaluation itself: the pipeline runs under the cache's detached
// compute context (which the evaluation observes via runNetwork), so a
// caller that cancels detaches immediately while an evaluation other
// callers still await keeps running — see rescache.GetOrComputeCtx.
func runNetworkCachedCtx(ctx context.Context, c *rescache.Cache, npu NPUConfig, net *model.Network, schemes []memprot.Scheme) (rows []RunResult, hit bool, err error) {
	if c == nil {
		rows, err = runNetwork(ctx, npu, net, schemes)
		return rows, false, err
	}
	if err := npu.Validate(); err != nil {
		return nil, false, err
	}
	key := fingerprint(npu, net, schemes)
	compute := func(cctx context.Context) ([]byte, error) {
		fresh, err := runNetwork(cctx, npu, net, schemes)
		if err != nil {
			return nil, err
		}
		return json.Marshal(fresh)
	}
	// A blob that fails to decode into rows checkRows accepts can only
	// come from a damaged or foreign disk entry (freshly computed blobs
	// are our own marshaling of the scheme subset): evict it and
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
			derr = checkRows(decoded, npu, net, schemes)
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

// checkRows rejects decoded rows that cannot be runNetwork's
// evaluation of schemes on net and npu. A disk entry's footer proves
// only that its bytes are whole, not that the process that sealed them
// wrote these rows, so the rows must name this workload, platform and
// the schemes in order, share one data volume and compute time across
// schemes (both are scheme-independent), never finish before their
// compute does (a row sums max(compute, DRAM) per layer), and carry
// the ratios their counts imply.
func checkRows(rows []RunResult, npu NPUConfig, net *model.Network, schemes []memprot.Scheme) error {
	if len(rows) != len(schemes) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(schemes))
	}
	want := make([]RunResult, len(rows))
	for k, r := range rows {
		if r.DataBytes != rows[0].DataBytes || r.ComputeCycles != rows[0].ComputeCycles {
			return fmt.Errorf("row %d: scheme-independent counts differ from row 0", k)
		}
		if r.ExecCycles < r.ComputeCycles {
			return fmt.Errorf("row %d: %d exec cycles, fewer than its %d compute cycles", k, r.ExecCycles, r.ComputeCycles)
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

// RunSuiteCachedCtx evaluates a scheme subset on the given workloads
// with the per-network cache in front: each (NPU, network, schemes)
// triple is looked up independently, so a sweep only evaluates the
// workloads the cache has not seen. schemes must be a subsequence of
// Schemes() that contains Baseline (sweeps pass Schemes() itself), and
// each workload's rows follow its order. Uncached workloads run
// through a worker pool of the cache's compute slots (GOMAXPROCS when
// the cache does not bound computes), output is assembled in input
// order regardless of scheduling, and each workload waits on the cache
// with the cancellation semantics of runNetworkCachedCtx. A nil cache
// evaluates the same subset uncached on a pool of GOMAXPROCS.
func RunSuiteCachedCtx(ctx context.Context, c *rescache.Cache, npu NPUConfig, nets []*model.Network, schemes []memprot.Scheme) (*SuiteResult, error) {
	if err := checkSchemes(schemes); err != nil {
		return nil, err
	}
	// A pool of exactly the slot count never sheds its own workloads.
	workers := runtime.GOMAXPROCS(0)
	if c != nil && c.ComputeSlots() > 0 {
		workers = c.ComputeSlots()
	}
	return runSuiteWith(ctx, npu, nets, workers, func(ctx context.Context, n *model.Network) ([]RunResult, error) {
		rows, _, err := runNetworkCachedCtx(ctx, c, npu, n, schemes)
		return rows, err
	})
}
