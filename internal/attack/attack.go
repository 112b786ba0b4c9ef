// Package attack implements the two attacks the paper analyzes and
// the SeDA defenses that stop them:
//
//   - SECA (Single-Element Collision Attack, Algorithm 1): when every
//     128-bit segment of a protection block shares one OTP, an
//     attacker who can guess the block's most frequent plaintext value
//     (DNN tensors are full of zeros after ReLU and pruning) recovers
//     the pad from the most frequent ciphertext value and decrypts the
//     whole block. B-AES's per-segment pads confine the leak to a
//     single segment.
//
//   - RePA (Re-Permutation Attack, Algorithm 2): XOR-aggregated MACs
//     are order-insensitive, so shuffling a layer's ciphertext blocks
//     passes a naive layer-MAC check while scrambling the decrypted
//     tensor. Position-bound MACs make any permutation change the
//     aggregate.
package attack

import (
	"bytes"

	"repro/internal/aesx"
	"repro/internal/xormac"
)

// SECAResult reports an attack attempt against one encrypted block.
type SECAResult struct {
	// PadRecovered is the OTP guess derived from the frequency
	// analysis.
	PadRecovered [16]byte
	// Plaintext is the attacker's decryption under the recovered pad.
	Plaintext []byte
	// SegmentsRecovered counts 16-byte segments whose recovered
	// plaintext matches the truth exactly.
	SegmentsRecovered int
	TotalSegments     int
}

// Success reports whether the attacker recovered more than one
// segment — with a shared pad the whole block falls; with per-segment
// pads at most the single segment whose plaintext was guessed matches.
func (r SECAResult) Success() bool { return r.SegmentsRecovered > 1 }

// RunSECA mounts Algorithm 1 (attack): given a ciphertext block whose
// segments may share one OTP, and the attacker's guess of the most
// common 16-byte plaintext (mostValueP, e.g. all zeros), recover the
// pad from the most frequent ciphertext segment and decrypt
// everything. truth is the actual plaintext, used only to score the
// attack.
func RunSECA(ciphertext, truth []byte, mostValueP [16]byte) SECAResult {
	res := SECAResult{TotalSegments: len(ciphertext) / 16}

	// CALC_FREQ_VALUE: the most frequent ciphertext segment.
	freq := make(map[[16]byte]int)
	var mostValueC [16]byte
	best := 0
	for off := 0; off+16 <= len(ciphertext); off += 16 {
		var seg [16]byte
		copy(seg[:], ciphertext[off:off+16])
		freq[seg]++
		if freq[seg] > best {
			best = freq[seg]
			mostValueC = seg
		}
	}

	// OTP <- most_value_p XOR most_value_c (Algorithm 1, line 2).
	for i := range res.PadRecovered {
		res.PadRecovered[i] = mostValueP[i] ^ mostValueC[i]
	}

	// value_p <- value_c XOR OTP for every element (lines 3-4).
	res.Plaintext = make([]byte, len(ciphertext))
	for i := range ciphertext {
		res.Plaintext[i] = ciphertext[i] ^ res.PadRecovered[i%16]
	}

	for off := 0; off+16 <= len(truth) && off+16 <= len(res.Plaintext); off += 16 {
		if bytes.Equal(res.Plaintext[off:off+16], truth[off:off+16]) {
			res.SegmentsRecovered++
		}
	}
	return res
}

// EncryptSharedPad encrypts a block the vulnerable way (one OTP for
// all segments) — the strawman of §III-B Challenge 2.
func EncryptSharedPad(b *aesx.BAES, plaintext []byte, c aesx.Counter) []byte {
	ct := make([]byte, len(plaintext))
	b.SharedPadXOR(ct, plaintext, c)
	return ct
}

// EncryptBAES encrypts a block the SeDA way (per-segment pads derived
// from the round keys) — Algorithm 1, defense.
func EncryptBAES(b *aesx.BAES, plaintext []byte, c aesx.Counter) []byte {
	ct := make([]byte, len(plaintext))
	b.XORSegments(ct, plaintext, c)
	return ct
}

// SparseTensor builds a DNN-like plaintext block: mostly zeros (the
// post-ReLU common value) with a few nonzero activations. This is the
// distribution that makes SECA practical.
func SparseTensor(n int, nonzeroEvery int, seed byte) []byte {
	t := make([]byte, n)
	for i := 0; i < n; i += nonzeroEvery {
		t[i] = seed + byte(i/nonzeroEvery) + 1
	}
	return t
}

// RePAResult reports a re-permutation attempt against a layer.
type RePAResult struct {
	// VerificationPassed is whether the layer MAC check accepted the
	// shuffled blocks.
	VerificationPassed bool
	// DataIntact is whether the decrypted layer equals the original
	// (false after a successful shuffle: the attacker corrupted the
	// model while passing verification).
	DataIntact bool
}

// AttackSucceeded: the attacker wins when verification passes but the
// data is no longer intact.
func (r RePAResult) AttackSucceeded() bool {
	return r.VerificationPassed && !r.DataIntact
}

// RunRePA mounts Algorithm 2 against a layer of ciphertext blocks.
// blocks are the original ciphertexts; perm is the attacker's shuffle
// (perm[i] = index of the block now sitting at position i).
// positionBound selects the MAC construction: false reproduces the
// naive XOR-MAC (attack succeeds), true the SeDA defense (attack
// detected).
func RunRePA(key []byte, blocks [][]byte, perm []int, positionBound bool) RePAResult {
	layerID := uint32(7)
	mac := func(blk []byte, idx int) xormac.MAC {
		if positionBound {
			return xormac.BlockMAC(key, blk, xormac.BlockPos{
				PA:      uint64(idx) * 512,
				VN:      1,
				LayerID: layerID,
				FmapIdx: 0,
				BlkIdx:  uint32(idx),
			})
		}
		return xormac.NaiveBlockMAC(key, blk)
	}

	// SUM_MAC over the genuine layout (what the on-chip state holds).
	var genuine xormac.Aggregate
	for i, b := range blocks {
		genuine.Add(mac(b, i))
	}

	// SHUFFLE_ORDER + SUM_MAC_shuffle: verify blocks at their observed
	// (shuffled) positions.
	var observed xormac.Aggregate
	shuffledSame := true
	for i := range blocks {
		b := blocks[perm[i]]
		observed.Add(mac(b, i))
		if perm[i] != i && !bytes.Equal(b, blocks[i]) {
			shuffledSame = false
		}
	}

	return RePAResult{
		VerificationPassed: observed.Sum() == genuine.Sum(),
		DataIntact:         shuffledSame,
	}
}
