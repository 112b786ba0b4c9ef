package core

import (
	"fmt"

	"repro/internal/aesx"
	"repro/internal/xormac"
)

// FmapID names a feature map: the (layer, fmap) pair bound into every
// optBlk MAC (Algorithm 2, defense).
type FmapID struct {
	Layer uint32
	Fmap  uint32
}

// Unit is the SeDA protection unit: one B-AES crypt engine, one integ
// engine with multi-level MAC state, and the on-chip (trusted) version
// numbers, layer MACs and model MAC. Everything else lives in the
// untrusted Memory.
type Unit struct {
	crypt  *aesx.BAES
	macKey []byte
	mem    *Memory

	// On-chip state (TCB). Version numbers are generated MGX/TNPU
	// style from model state and never leave the chip.
	vns       map[blockKey]uint64
	layerMACs map[FmapID]*xormac.LayerMAC
	modelMAC  *xormac.ModelMAC
	sealed    map[FmapID]xormac.MAC // layer MACs folded into the model MAC
}

type blockKey struct {
	id  FmapID
	blk uint32
}

// NewUnit builds a protection unit over mem with the given encryption
// and MAC keys.
func NewUnit(encKey, macKey []byte, mem *Memory) (*Unit, error) {
	b, err := aesx.NewBAES(encKey)
	if err != nil {
		return nil, fmt.Errorf("core: crypt engine: %w", err)
	}
	if len(macKey) == 0 {
		return nil, fmt.Errorf("core: empty MAC key")
	}
	mk := make([]byte, len(macKey))
	copy(mk, macKey)
	return &Unit{
		crypt:     b,
		macKey:    mk,
		mem:       mem,
		vns:       make(map[blockKey]uint64),
		layerMACs: make(map[FmapID]*xormac.LayerMAC),
		modelMAC:  xormac.NewModelMAC(mk),
		sealed:    make(map[FmapID]xormac.MAC),
	}, nil
}

// Memory exposes the untrusted memory (for attack simulations).
func (u *Unit) Memory() *Memory { return u.mem }

// counterFor builds the AES-CTR counter PA ‖ VN for a block.
func counterFor(addr, vn uint64) aesx.Counter {
	return aesx.Counter{PA: addr, VN: vn}
}

// blockPos assembles the position tuple for a block.
func (u *Unit) blockPos(id FmapID, addr uint64, blk uint32, vn uint64) xormac.BlockPos {
	return xormac.BlockPos{
		PA:      addr,
		VN:      vn,
		LayerID: id.Layer,
		FmapIdx: id.Fmap,
		BlkIdx:  blk,
	}
}

// WriteFmap encrypts data with bandwidth-aware AES-CTR at optBlk
// granularity, stores the ciphertext at addr in untrusted memory,
// and replaces the fmap's on-chip layer MAC with the XOR-aggregate of
// the position-bound optBlk MACs. Rewriting an fmap increments every
// covered block's version number.
func (u *Unit) WriteFmap(id FmapID, addr uint64, data []byte, optBlk int) error {
	if optBlk <= 0 {
		return fmt.Errorf("core: optBlk %d must be positive", optBlk)
	}
	lm := &xormac.LayerMAC{LayerID: id.Layer}
	for off := 0; off < len(data); off += optBlk {
		end := off + optBlk
		if end > len(data) {
			end = len(data)
		}
		blkIdx := uint32(off / optBlk)
		key := blockKey{id: id, blk: blkIdx}
		u.vns[key]++
		vn := u.vns[key]
		blkAddr := addr + uint64(off)

		ct := make([]byte, end-off)
		u.crypt.XORSegments(ct, data[off:end], aesx.Counter{PA: blkAddr, VN: vn})
		u.mem.Write(blkAddr, ct)

		lm.Agg.Add(xormac.BlockMAC(u.macKey, ct, u.blockPos(id, blkAddr, blkIdx, vn)))
	}
	u.layerMACs[id] = lm
	return nil
}

// ReadFmap fetches n ciphertext bytes from addr, recomputes every
// optBlk MAC at its expected position, verifies the XOR-aggregate
// against the on-chip layer MAC (the layer-level check of the
// multi-level mechanism), and only then returns the decrypted data.
// Any tamper, swap or replay in untrusted memory yields an
// *IntegrityError.
func (u *Unit) ReadFmap(id FmapID, addr uint64, n int, optBlk int) ([]byte, error) {
	if err := checkGeometry(n, optBlk); err != nil {
		return nil, err
	}
	want, ok := u.layerMACs[id]
	if !ok {
		return nil, fmt.Errorf("core: no layer MAC for fmap %+v (never written)", id)
	}
	out := make([]byte, n)
	var agg xormac.Aggregate
	for off := 0; off < n; off += optBlk {
		end := off + optBlk
		if end > n {
			end = n
		}
		blkIdx := uint32(off / optBlk)
		key := blockKey{id: id, blk: blkIdx}
		vn := u.vns[key]
		blkAddr := addr + uint64(off)

		ct := u.mem.Read(blkAddr, end-off)
		agg.Add(xormac.BlockMAC(u.macKey, ct, u.blockPos(id, blkAddr, blkIdx, vn)))
		u.crypt.XORSegments(out[off:end], ct, aesx.Counter{PA: blkAddr, VN: vn})
	}
	if agg.Sum() != want.Agg.Sum() {
		return nil, &IntegrityError{Fmap: id, Got: agg.Sum(), Want: want.Agg.Sum()}
	}
	return out, nil
}

// checkGeometry rejects an fmap read of n bytes in optBlk-byte blocks
// that the block loop cannot walk.
func checkGeometry(n, optBlk int) error {
	if optBlk <= 0 {
		return fmt.Errorf("core: optBlk %d must be positive", optBlk)
	}
	if n < 0 {
		return fmt.Errorf("core: fmap length %d must not be negative", n)
	}
	return nil
}

// SealFmap folds an fmap's layer MAC into the on-chip model MAC. Used
// for model weights: after sealing, per-read layer checks can be
// skipped and a single model-level verification at the end of
// inference covers all weights (§III-C, "model MAC").
func (u *Unit) SealFmap(id FmapID) error {
	lm, ok := u.layerMACs[id]
	if !ok {
		return fmt.Errorf("core: cannot seal unwritten fmap %+v", id)
	}
	if _, dup := u.sealed[id]; dup {
		return fmt.Errorf("core: fmap %+v already sealed", id)
	}
	u.modelMAC.AddLayer(lm)
	u.sealed[id] = lm.Agg.Sum()
	return nil
}

// VerifyModel recomputes every sealed fmap's aggregate from untrusted
// memory and compares the fold against the on-chip model MAC. fetch
// must return each sealed fmap's (addr, length, optBlk) so the unit
// knows where to look; it is supplied by the caller because fmap
// placement is scheduler state, not protection state.
func (u *Unit) VerifyModel(fetch func(FmapID) (addr uint64, n, optBlk int)) error {
	check := xormac.NewModelMAC(u.macKey)
	for id := range u.sealed {
		addr, n, optBlk := fetch(id)
		if err := checkGeometry(n, optBlk); err != nil {
			return err
		}
		lm := &xormac.LayerMAC{LayerID: id.Layer}
		for off := 0; off < n; off += optBlk {
			end := off + optBlk
			if end > n {
				end = n
			}
			blkIdx := uint32(off / optBlk)
			vn := u.vns[blockKey{id: id, blk: blkIdx}]
			blkAddr := addr + uint64(off)
			ct := u.mem.Read(blkAddr, end-off)
			lm.Agg.Add(xormac.BlockMAC(u.macKey, ct, u.blockPos(id, blkAddr, blkIdx, vn)))
		}
		check.AddLayer(lm)
	}
	if check.Sum() != u.modelMAC.Sum() {
		return &IntegrityError{Got: check.Sum(), Want: u.modelMAC.Sum(), Model: true}
	}
	return nil
}

// IntegrityError reports a failed verification.
type IntegrityError struct {
	Fmap  FmapID
	Got   xormac.MAC
	Want  xormac.MAC
	Model bool
}

func (e *IntegrityError) Error() string {
	if e.Model {
		return fmt.Sprintf("core: model MAC mismatch (got %#x, want %#x)", uint64(e.Got), uint64(e.Want))
	}
	return fmt.Sprintf("core: layer MAC mismatch for layer %d fmap %d (got %#x, want %#x)",
		e.Fmap.Layer, e.Fmap.Fmap, uint64(e.Got), uint64(e.Want))
}
