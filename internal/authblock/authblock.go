// Package authblock implements the SecureLoop-style authentication-
// block search SeDA uses to pick optBlk, the optimal integrity-
// verification granularity per layer (paper §III-C: "We use the
// scheduling search strategy proposed in the SecureLoop [10] to obtain
// the optimal authentication block (optBlk)").
//
// The search scores candidate block sizes against the layer's actual
// access-run geometry (from the systolic-array schedule): a candidate
// pays for
//
//   - metadata: one 8 B MAC fetch per protection block touched,
//   - over-fetch: bytes decrypted/verified beyond the run (misaligned
//     boundaries), and
//   - read-modify-write: uncovered bytes of partially written blocks,
//
// and the candidate with the lowest total cost wins. Tile-aligned
// candidates (the exact run length and its divisors) are searched in
// addition to the conventional power-of-two sizes, which is how SeDA's
// intra-layer awareness eliminates redundant verification entirely
// when a divisor of the run length exists.
//
// The search runs on a RunSet, the deduplicated summary of an access
// stream: NewRunSet builds one from raw accesses, CollectLayer one per
// tensor from a layer trace, and RunSet.Search/SearchWeighted pick the
// block.
package authblock

import "sort"

// MACBytes is the per-block metadata cost (64-bit MAC).
const MACBytes = 8

// MinBlock is the smallest protection unit the engine supports.
const MinBlock = 64

// MaxBlock caps the search; beyond this the SRAM staging cost of
// whole-block verification outweighs metadata savings.
const MaxBlock = 8192

// Cost breaks down a candidate's score in bytes of induced traffic.
type Cost struct {
	Block     int
	MACBytes  uint64 // metadata fetch/store traffic
	OverFetch uint64 // misaligned read over-fetch
	RMWBytes  uint64 // partial-write read-back
}

// Total returns the summed cost.
func (c Cost) Total() uint64 { return c.MACBytes + c.OverFetch + c.RMWBytes }

// Candidates returns the block sizes the search considers for the
// given run lengths: powers of two from MinBlock to MaxBlock plus
// every divisor of each distinct run length within [MinBlock,
// MaxBlock] (the tile-aligned candidates).
//
// The result is deterministic for any input order or duplication: it
// is deduplicated and sorted ascending, so the search visits
// candidates smallest-first regardless of how the lengths were
// collected (TestCandidatesDeterministicOrder pins this). A nil or
// empty runLens yields exactly the power-of-two ladder; non-positive
// lengths — the zero-length runs a degenerate schedule can emit — are
// skipped rather than searched for divisors.
func Candidates(runLens []int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(b int) {
		if b >= MinBlock && b <= MaxBlock && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for b := MinBlock; b <= MaxBlock; b *= 2 {
		add(b)
	}
	for _, n := range runLens {
		if n <= 0 {
			continue
		}
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				add(d)
				add(n / d)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Result is the chosen optBlk for a layer plus the scores of every
// candidate (kept for ablation benches).
type Result struct {
	Best   Cost
	Scores []Cost
}

// Weights scales the cost components for the scenario at hand. The
// default weighs everything equally (optBlk MACs stored off-chip);
// SeDA's multi-level mechanism aggregates optBlk MACs on-chip, so its
// search zeroes the MAC-traffic weight and optimizes pure alignment.
type Weights struct {
	MAC       float64
	OverFetch float64
	RMW       float64
}

// DefaultWeights is the off-chip-MAC scenario.
func DefaultWeights() Weights { return Weights{MAC: 1, OverFetch: 1, RMW: 1} }

// OnChipMACWeights is SeDA's scenario: per-block MACs cost no traffic,
// only misalignment does.
func OnChipMACWeights() Weights { return Weights{MAC: 0, OverFetch: 1, RMW: 1} }

func (w Weights) score(c Cost) float64 {
	return w.MAC*float64(c.MACBytes) + w.OverFetch*float64(c.OverFetch) + w.RMW*float64(c.RMWBytes)
}
