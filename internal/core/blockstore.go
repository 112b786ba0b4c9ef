package core

import (
	"fmt"

	"repro/internal/xormac"
)

// This file implements the optBlk level of the multi-level integrity
// mechanism (Table I, row 1): per-block MACs stored *off-chip* in
// untrusted memory, verified immediately as each block arrives. The
// MACs are keyed, and freshness comes from the on-chip version
// numbers, so the attacker gains nothing from tampering with the MAC
// store itself. Compared to the layer-MAC path (ReadFmap), this mode
// trades metadata traffic for verification latency: each block's
// verdict is available at fetch time rather than at the layer
// boundary.

// WriteFmapWithBlockMACs encrypts data at optBlk granularity like
// WriteFmap and additionally stores each block's position-bound MAC at
// macAddr + 8*blkIdx in untrusted memory. The layer MAC is maintained
// as well, so both verification levels remain available.
func (u *Unit) WriteFmapWithBlockMACs(id FmapID, addr, macAddr uint64, data []byte, optBlk int) error {
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
		u.crypt.XORSegments(ct, data[off:end], counterFor(blkAddr, vn))
		u.mem.Write(blkAddr, ct)

		mac := xormac.BlockMAC(u.macKey, ct, u.blockPos(id, blkAddr, blkIdx, vn))
		mb := mac.Bytes()
		u.mem.Write(macAddr+uint64(blkIdx)*xormac.MACSize, mb[:])
		lm.Agg.Add(mac)
	}
	u.layerMACs[id] = lm
	return nil
}

// ReadBlockVerified fetches a single optBlk block (blkIdx) of an fmap
// written with WriteFmapWithBlockMACs, verifies it against its
// off-chip MAC immediately, and returns the decrypted plaintext. n is
// the block's length (the final block of an fmap may be short).
func (u *Unit) ReadBlockVerified(id FmapID, addr, macAddr uint64, blkIdx uint32, optBlk, n int) ([]byte, error) {
	if optBlk <= 0 || n <= 0 || n > optBlk {
		return nil, fmt.Errorf("core: bad block read geometry optBlk=%d n=%d", optBlk, n)
	}
	key := blockKey{id: id, blk: blkIdx}
	vn, ok := u.vns[key]
	if !ok || vn == 0 {
		return nil, fmt.Errorf("core: block %d of fmap %+v never written", blkIdx, id)
	}
	blkAddr := addr + uint64(blkIdx)*uint64(optBlk)
	ct := u.mem.Read(blkAddr, n)

	want := u.mem.Read(macAddr+uint64(blkIdx)*xormac.MACSize, xormac.MACSize)
	got := xormac.BlockMAC(u.macKey, ct, u.blockPos(id, blkAddr, blkIdx, vn))
	gb := got.Bytes()
	for i := 0; i < xormac.MACSize; i++ {
		if gb[i] != want[i] {
			return nil, &IntegrityError{Fmap: id, Got: got, Want: macFromBytes(want)}
		}
	}
	out := make([]byte, n)
	u.crypt.XORSegments(out, ct, counterFor(blkAddr, vn))
	return out, nil
}

func macFromBytes(b []byte) xormac.MAC {
	var v uint64
	for i := 0; i < xormac.MACSize && i < len(b); i++ {
		v = v<<8 | uint64(b[i])
	}
	return xormac.MAC(v)
}
