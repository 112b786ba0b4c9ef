// Package xormac implements the XOR-MAC aggregation scheme
// (Bellare–Guérin–Rogaway style) that SeDA's Integ Engine uses to fold
// per-block optBlk MACs into a single layer MAC, plus the model MAC
// accumulator and the position-bound MAC construction that defends
// against the Re-Permutation Attack (paper §III-C, Algorithm 2). The
// MACs it folds are 64-bit truncations of HMAC-SHA256 (TruncMAC).
//
// XOR aggregation is parallelizable and incremental: a block rewrite
// updates the aggregate by XORing out the old MAC and XORing in the
// new one, without touching any other block. Its weakness — XOR is
// commutative, so shuffling blocks leaves the aggregate unchanged — is
// exactly the RePA vulnerability. The defense binds each block MAC to
// its position (PA, VN, layer id, feature-map index, block index)
// before aggregation, making any permutation change at least one leaf
// MAC and therefore the aggregate.
package xormac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// MACSize is the width of the truncated per-block message
// authentication codes carried as security metadata (8 bytes, matching
// the paper's 64-bit MACs).
const MACSize = 8

// MAC is a truncated 64-bit block MAC, represented as a uint64 so the
// XOR-MAC aggregation is a single machine op.
type MAC uint64

// TruncMAC computes the 64-bit truncated HMAC-SHA256 of msg under key:
// the first 8 bytes of the tag, read big-endian.
func TruncMAC(key, msg []byte) MAC {
	h := hmac.New(sha256.New, key)
	h.Write(msg) //nolint:errcheck // hash writes cannot fail
	return MAC(binary.BigEndian.Uint64(h.Sum(nil)))
}

// Bytes returns the big-endian byte representation of the MAC, the
// form in which it is stored in off-chip metadata space.
func (m MAC) Bytes() [MACSize]byte {
	var b [MACSize]byte
	binary.BigEndian.PutUint64(b[:], uint64(m))
	return b
}

// BlockPos identifies a protection block's position inside a DNN
// model, the tuple hashed into the MAC by Algorithm 2 line 8.
type BlockPos struct {
	PA      uint64 // physical address of the block
	VN      uint64 // version number at the time of the write
	LayerID uint32 // layer number within the model
	FmapIdx uint32 // feature-map (tensor) index within the layer
	BlkIdx  uint32 // block index within the feature map
}

// appendPos serializes the position tuple for hashing.
func appendPos(dst []byte, p BlockPos) []byte {
	var b [28]byte
	binary.BigEndian.PutUint64(b[0:], p.PA)
	binary.BigEndian.PutUint64(b[8:], p.VN)
	binary.BigEndian.PutUint32(b[16:], p.LayerID)
	binary.BigEndian.PutUint32(b[20:], p.FmapIdx)
	binary.BigEndian.PutUint32(b[24:], p.BlkIdx)
	return append(dst, b[:]...)
}

// BlockMAC computes the position-bound MAC of Algorithm 2 (defense):
//
//	MAC_i = H_Kh(blk ‖ PA ‖ VN ‖ layer_id ‖ fmap_idx ‖ blk_idx)
//
// truncated to 64 bits.
func BlockMAC(key, blk []byte, pos BlockPos) MAC {
	msg := make([]byte, 0, len(blk)+28)
	msg = append(msg, blk...)
	msg = appendPos(msg, pos)
	return TruncMAC(key, msg)
}

// NaiveBlockMAC computes the MAC the paper attacks: the hash of the
// ciphertext alone, with no position binding. Shuffling blocks that
// carry naive MACs leaves the XOR aggregate unchanged (RePA,
// Algorithm 2 lines 1-6).
func NaiveBlockMAC(key, blk []byte) MAC {
	return TruncMAC(key, blk)
}

// Aggregate is an order-independent XOR accumulator over 64-bit MACs.
// The zero value is an empty aggregate.
type Aggregate struct {
	sum MAC
	n   int
}

// Add folds a MAC into the aggregate.
func (a *Aggregate) Add(m MAC) {
	a.sum ^= m
	a.n++
}

// Remove cancels a previously added MAC (XOR is its own inverse),
// enabling the incremental update used when a block is rewritten.
func (a *Aggregate) Remove(m MAC) {
	a.sum ^= m
	if a.n > 0 {
		a.n--
	}
}

// Update replaces old with new in one step.
func (a *Aggregate) Update(oldMAC, newMAC MAC) {
	a.sum ^= oldMAC ^ newMAC
}

// Sum returns the current aggregate MAC.
func (a *Aggregate) Sum() MAC { return a.sum }

// Len returns the number of MACs currently folded in (adds minus
// removes).
func (a *Aggregate) Len() int { return a.n }

// AggregateOf folds a slice of MACs, in any order, into one value.
func AggregateOf(macs []MAC) MAC {
	var a Aggregate
	for _, m := range macs {
		a.Add(m)
	}
	return a.Sum()
}

// LayerMAC is the per-layer aggregate kept by the multi-level
// verification mechanism. It records which layer it covers so the
// model-level fold can bind layer order.
type LayerMAC struct {
	LayerID uint32
	Agg     Aggregate
}

// ModelMAC folds layer MACs into the single on-chip model MAC. Layer
// order is bound by hashing each layer aggregate together with its
// layer id before folding, so swapping two whole layers changes the
// model MAC even though the fold itself is XOR.
type ModelMAC struct {
	key []byte
	agg Aggregate
}

// NewModelMAC creates a model MAC accumulator keyed with key.
func NewModelMAC(key []byte) *ModelMAC {
	k := make([]byte, len(key))
	copy(k, key)
	return &ModelMAC{key: k}
}

// AddLayer folds a finished layer MAC into the model MAC.
func (m *ModelMAC) AddLayer(l *LayerMAC) {
	m.agg.Add(m.bind(l))
}

// RemoveLayer cancels a layer previously folded in.
func (m *ModelMAC) RemoveLayer(l *LayerMAC) {
	m.agg.Remove(m.bind(l))
}

func (m *ModelMAC) bind(l *LayerMAC) MAC {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], l.LayerID)
	binary.BigEndian.PutUint64(b[4:], uint64(l.Agg.Sum()))
	return TruncMAC(m.key, b[:])
}

// Sum returns the model MAC.
func (m *ModelMAC) Sum() MAC { return m.agg.Sum() }
