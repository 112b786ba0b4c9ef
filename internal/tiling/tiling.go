// Package tiling provides the protection-block geometry analysis that
// SeDA's software half relies on: over-fetch accounting when access
// runs are misaligned with protection-block boundaries, and read-
// modify-write costs for partial block writes.
//
// The key observation from the paper: coarse protection blocks (512 B)
// cut metadata traffic but cost extra data traffic whenever a tile's
// contiguous runs don't align with block boundaries, because
// en/decryption and MAC verification operate on whole blocks. Fine
// blocks (64 B) align with everything but multiply metadata. SeDA
// sidesteps the dilemma by choosing per-layer block sizes that divide
// the tile runs exactly. That choice, including the producer/consumer
// tiling mismatch of Fig. 3(b), is internal/authblock's RunSet search;
// this package only prices a run against a given block size.
package tiling

// RoundDown returns addr rounded down to a multiple of block.
func RoundDown(addr, block uint64) uint64 { return addr - addr%block }

// RoundUp returns addr rounded up to a multiple of block.
func RoundUp(addr, block uint64) uint64 {
	if r := addr % block; r != 0 {
		return addr + block - r
	}
	return addr
}

// BlocksTouched returns how many protection blocks of size block the
// byte run [addr, addr+n) overlaps. A zero-length run touches none.
func BlocksTouched(addr, n, block uint64) uint64 {
	if n == 0 {
		return 0
	}
	return (RoundUp(addr+n, block) - RoundDown(addr, block)) / block
}

// ReadOverFetch returns the extra bytes that must be fetched (and
// decrypted and verified) beyond the run itself when reads happen at
// whole-protection-block granularity.
func ReadOverFetch(addr, n, block uint64) uint64 {
	if n == 0 {
		return 0
	}
	return BlocksTouched(addr, n, block)*block - n
}

// WriteRMWBytes returns the bytes that must be *read* to complete a
// write of [addr, addr+n): partially covered head/tail blocks need
// their uncovered bytes fetched so the block MAC can be recomputed
// (read-modify-write). Fully covered blocks cost nothing extra.
func WriteRMWBytes(addr, n, block uint64) uint64 {
	return ReadOverFetch(addr, n, block) // uncovered bytes of head+tail
}
