package authblock

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/tiling"
	"repro/internal/trace"
)

// Run is one deduplicated access run: Count source accesses shared the
// same offset, length and direction. Offsets are relative to the owning
// RunSet's Base (zero for sets built from raw accesses), so two layers
// with the same schedule geometry produce identical runs regardless of
// where their tensors sit in the address space.
type Run struct {
	Addr  uint64 // offset from the RunSet's grid anchor
	Bytes uint32
	Kind  trace.Kind
	Count uint32
}

// RunSet is a per-tensor run-length summary of an access stream: the
// input a block-size search needs, compressed to one entry per distinct
// (offset, length, direction) with a multiplicity count. A schedule
// that re-streams the same weight groups once per row tile collapses
// RowTiles-fold, so evaluating a candidate block costs O(distinct runs)
// instead of O(accesses) — and the summary carries prefix totals and an
// alignment GCD that reduce exactly-aligned candidates (SeDA's
// tile-divisor candidates, the ones that win) to O(1).
//
// Cost equivalence is exact, not approximate: all cost components are
// integer sums, so multiplying a run's per-access cost by its count is
// bit-identical to an access-by-access scan of the stream (the
// reference scan in the tests; TestSearchWeightedMatchesLegacyScan
// pins this on randomized sets).
type RunSet struct {
	// Base is the grid anchor the offsets are relative to: the minimum
	// access address for collected layers, zero for raw sets.
	Base uint64
	// Runs holds the deduplicated runs in first-appearance order.
	Runs []Run

	source     int    // accesses summarized (including zero-length ones)
	totalBytes uint64 // Σ Count·Bytes — prefix total for aligned candidates
	alignG     uint64 // gcd over every run's offset and length (0 = no runs)
	lens       []int  // distinct run lengths, first-appearance order
}

// Empty reports whether the set summarizes no accesses at all.
func (rs *RunSet) Empty() bool { return rs.source == 0 }

// TotalBytes returns the summed length of all summarized accesses.
func (rs *RunSet) TotalBytes() uint64 { return rs.totalBytes }

// runKey identifies a dedup group during construction.
type runKey struct {
	addr  uint64
	bytes uint32
	kind  trace.Kind
}

// builder accumulates runs during a walk; finalize rebases and seals.
type builder struct {
	rs      RunSet
	index   map[runKey]int
	minAddr uint64
	any     bool
}

func newBuilder() builder {
	return builder{index: make(map[runKey]int)}
}

// add records one access. Zero-length accesses count toward Source
// and toward the rebase anchor (the grid anchors at the minimum
// address of *all* tensor accesses, exactly as the per-tensor trace
// rescan this replaced computed it) but contribute no run: they cost
// nothing at any granularity and their length is not a candidate.
func (b *builder) add(addr uint64, bytes uint32, kind trace.Kind) {
	b.addN(addr, bytes, kind, 1)
}

// addN records count identical accesses at once.
func (b *builder) addN(addr uint64, bytes uint32, kind trace.Kind, count uint32) {
	if count == 0 {
		return
	}
	b.rs.source += int(count)
	if !b.any || addr < b.minAddr {
		b.minAddr = addr
		b.any = true
	}
	if bytes == 0 {
		return
	}
	k := runKey{addr: addr, bytes: bytes, kind: kind}
	if i, ok := b.index[k]; ok {
		b.rs.Runs[i].Count += count
		return
	}
	b.index[k] = len(b.rs.Runs)
	b.rs.Runs = append(b.rs.Runs, Run{Addr: addr, Bytes: bytes, Kind: kind, Count: count})
	n := int(bytes)
	for _, l := range b.rs.lens {
		if l == n {
			return
		}
	}
	b.rs.lens = append(b.rs.lens, n)
}

// finalize optionally rebases offsets to the minimum address and
// computes the prefix totals and alignment GCD.
func (b *builder) finalize(rebase bool) RunSet {
	rs := b.rs
	if rebase && b.any {
		rs.Base = b.minAddr
		for i := range rs.Runs {
			rs.Runs[i].Addr -= rs.Base
		}
	}
	for i := range rs.Runs {
		r := &rs.Runs[i]
		rs.totalBytes += uint64(r.Count) * uint64(r.Bytes)
		rs.alignG = gcd64(rs.alignG, r.Addr)
		rs.alignG = gcd64(rs.alignG, uint64(r.Bytes))
	}
	return rs
}

func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewRunSet summarizes a raw access slice without rebasing: offsets
// are the accesses' absolute addresses, so evaluation is bit-identical
// to scanning the slice itself.
func NewRunSet(runs []trace.Access) RunSet {
	b := newBuilder()
	for i := range runs {
		b.add(runs[i].Addr, runs[i].Bytes, runs[i].Kind)
	}
	return b.finalize(false)
}

// LayerRuns is the per-tensor run summary of one layer's spine,
// collected in a single walk. Each tensor's set is rebased to its own
// minimum address, anchoring the protection-block grid per tensor the
// way the SeDA search expects.
type LayerRuns struct {
	IFMap   RunSet
	Weights RunSet
	OFMap   RunSet
}

// Tensor returns the named tensor's run set.
func (lr *LayerRuns) Tensor(tn trace.Tensor) *RunSet {
	switch tn {
	case trace.IFMap:
		return &lr.IFMap
	case trace.Weights:
		return &lr.Weights
	case trace.OFMap:
		return &lr.OFMap
	}
	return nil
}

// CollectLayer walks a layer's spine exactly once and summarizes its
// data accesses per tensor. This replaces the per-tensor trace rescans
// the SeDA block precompute used to make — each layer trace was walked
// twice per tensor per consumer — with one pass feeding every search.
func CollectLayer(t *trace.Trace) LayerRuns {
	bi, bw, bo := newBuilder(), newBuilder(), newBuilder()
	for i := range t.Accesses {
		a := &t.Accesses[i]
		if a.Class != trace.Data {
			continue
		}
		switch a.Tensor {
		case trace.IFMap:
			bi.add(a.Addr, a.Bytes, a.Kind)
		case trace.Weights:
			bw.add(a.Addr, a.Bytes, a.Kind)
		case trace.OFMap:
			bo.add(a.Addr, a.Bytes, a.Kind)
		}
	}
	return LayerRuns{
		IFMap:   bi.finalize(true),
		Weights: bw.finalize(true),
		OFMap:   bo.finalize(true),
	}
}

// Union merges two run sets onto a common grid anchor — the smaller
// of the two bases — re-deduplicating runs that coincide across the
// sets. This is the inter-layer search input: the producer's ofmap
// writes and the consumer's ifmap reads of the shared activation
// tensor, on one block grid. An empty side leaves the other
// unchanged. Anchor choice matches the legacy per-slice path exactly:
// every access of a non-empty side participates in its Base —
// including zero-length ones, which carry no cost or candidate but do
// anchor the grid.
func Union(a, b *RunSet) RunSet {
	if b.Empty() {
		return *a
	}
	if a.Empty() {
		return *b
	}
	// Both sides summarize at least one access, so both Bases are real
	// minimum addresses: the common anchor is their minimum.
	base := a.Base
	if b.Base < base {
		base = b.Base
	}
	bb := newBuilder()
	for _, rs := range []*RunSet{a, b} {
		for _, r := range rs.Runs {
			bb.addN(r.Addr+rs.Base-base, r.Bytes, r.Kind, r.Count)
		}
		// Zero-length accesses have no run to carry over but still
		// count toward the source tally.
		bb.rs.source += rs.source - countRuns(rs)
	}
	out := bb.finalize(false)
	out.Base = base
	return out
}

// countRuns sums the multiplicities of a set's runs (its non-zero-
// length source accesses).
func countRuns(rs *RunSet) int {
	n := 0
	for _, r := range rs.Runs {
		n += int(r.Count)
	}
	return n
}

// Evaluate scores one candidate block size against the summarized
// runs, bit-identically to the legacy per-access scan. Exactly aligned
// candidates — block divides every run's offset and length, which
// includes SeDA's winning tile-divisor candidates — resolve in O(1)
// from the prefix totals: no over-fetch, no RMW, and one MAC per
// block, i.e. MACBytes·TotalBytes/block. Other candidates fall back to
// one pass over the deduplicated runs, each run's cost scaled by its
// multiplicity.
func (rs *RunSet) Evaluate(block int) Cost {
	c := Cost{Block: block}
	b := uint64(block)
	if len(rs.Runs) == 0 {
		return c
	}
	if rs.alignG%b == 0 {
		c.MACBytes = rs.totalBytes / b * MACBytes
		return c
	}
	for i := range rs.Runs {
		r := &rs.Runs[i]
		n := uint64(r.Bytes)
		cnt := uint64(r.Count)
		c.MACBytes += cnt * tiling.BlocksTouched(r.Addr, n, b) * MACBytes
		if r.Kind == trace.Read {
			c.OverFetch += cnt * tiling.ReadOverFetch(r.Addr, n, b)
		} else {
			c.RMWBytes += cnt * tiling.WriteRMWBytes(r.Addr, n, b)
		}
	}
	return c
}

// Search picks the optBlk for the summarized runs under the default
// (off-chip MAC) weights.
func (rs *RunSet) Search() Result { return rs.SearchWeighted(DefaultWeights()) }

// SearchWeighted picks the optBlk under explicit cost weights,
// evaluating every candidate incrementally against the summary instead
// of rescanning an access slice per candidate. Results are
// bit-identical to the legacy scan: same candidate set (distinct run
// lengths feed Candidates), same integer costs, same tie-breaking
// (ties prefer the larger block).
func (rs *RunSet) SearchWeighted(w Weights) Result {
	if rs.Empty() {
		return Result{Best: Cost{Block: MinBlock}}
	}
	cands := Candidates(rs.lens)
	res := Result{}
	bestScore := 0.0
	for _, b := range cands {
		c := rs.Evaluate(b)
		res.Scores = append(res.Scores, c)
		s := w.score(c)
		if res.Best.Block == 0 || s < bestScore ||
			(s == bestScore && c.Block > res.Best.Block) {
			res.Best = c
			bestScore = s
		}
	}
	if res.Best.Block == 0 {
		res.Best = Cost{Block: MinBlock}
	}
	return res
}

// Fingerprint returns a canonical digest of the summarized geometry:
// the deduplicated runs (offset, length, direction, multiplicity) in
// collection order. Two layers whose schedules coincide — the same
// tiling on the same tensor shapes, wherever the tensors live —
// fingerprint equal, which is what lets the server and edge NPU
// evaluations share one search when their tilings agree. Base is
// deliberately excluded: the search operates on rebased offsets only.
func (rs *RunSet) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var buf [17]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(rs.Runs)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(rs.source))
	h.Write(buf[:16])
	for i := range rs.Runs {
		r := &rs.Runs[i]
		binary.LittleEndian.PutUint64(buf[:8], r.Addr)
		binary.LittleEndian.PutUint32(buf[8:12], r.Bytes)
		binary.LittleEndian.PutUint32(buf[12:16], r.Count)
		buf[16] = byte(r.Kind)
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
