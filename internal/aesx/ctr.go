package aesx

import (
	"encoding/binary"
	"fmt"
)

// Counter is the AES-CTR counter block used by memory-protection
// schemes: the concatenation PA ‖ VN of a protection block's physical
// address and its version number (paper Eq. 1/2). The physical address
// occupies the high 8 bytes and the version number the low 8 bytes;
// SeDA and SGX use 56-bit VNs, which fit.
type Counter struct {
	PA uint64 // physical address of the protection block
	VN uint64 // version number, incremented on every write
}

// Bytes returns the 16-byte counter block PA ‖ VN.
func (c Counter) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], c.PA)
	binary.BigEndian.PutUint64(b[8:16], c.VN)
	return b
}

// OTP generates the base one-time pad for a counter:
// AES-CTR_Ke(PA ‖ VN), the quantity on the right-hand side of
// Eq. 1/2 in the paper.
func (e *Engine) OTP(c Counter) [16]byte {
	in := c.Bytes()
	var out [16]byte
	e.EncryptBlock(out[:], in[:])
	return out
}

// XORKeyStreamCTR applies the textbook AES-CTR keystream to src,
// writing to dst, starting from counter c and incrementing the VN
// field per 16-byte segment; VN wraps without carrying into PA. It is
// the T-AES reference behaviour where each 128-bit segment gets an
// independent AES keystream block; used as a cross-check for the
// bandwidth-aware path and by the T-AES cost model. len(dst) must be
// >= len(src); anything shorter would silently truncate the
// ciphertext, so it panics.
func (e *Engine) XORKeyStreamCTR(dst, src []byte, c Counter) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("aesx: XORKeyStreamCTR dst length %d < src length %d", len(dst), len(src)))
	}
	for off := 0; off < len(src); off += BlockSize {
		pad := e.OTP(c)
		c.VN++
		end := min(off+BlockSize, len(src))
		for i := off; i < end; i++ {
			dst[i] = src[i] ^ pad[i-off]
		}
	}
}
