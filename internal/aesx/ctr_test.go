package aesx

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"testing"
)

// TestCTRBatchMatchesBlockwise checks XORKeyStreamCTR against
// crypto/cipher's CTR mode at every length around the block
// boundaries, including partial final segments, for all three key
// sizes. A counter whose VN wraps mid-stream is checked block by block
// instead: the standard CTR carries into PA there, while VN wraps on
// its own.
func TestCTRBatchMatchesBlockwise(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte(i*7 + keyLen)
		}
		e, err := NewEngine(key)
		if err != nil {
			t.Fatal(err)
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		c := Counter{PA: 0xdead_beef_0000_0000, VN: 0x1234}
		wrap := Counter{PA: c.PA, VN: 0xffff_ffff_ffff_fffd}
		for _, n := range []int{0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 640, 1000} {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(i)
			}
			got := make([]byte, n)
			want := make([]byte, n)
			iv := c.Bytes()
			e.XORKeyStreamCTR(got, src, c)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("key%d len=%d: CTR differs from crypto/cipher", keyLen*8, n)
			}

			e.XORKeyStreamCTR(got, src, wrap)
			for off := 0; off < n; off += BlockSize {
				var pad [BlockSize]byte
				ctr := Counter{PA: wrap.PA, VN: wrap.VN + uint64(off/BlockSize)}.Bytes()
				e.EncryptBlock(pad[:], ctr[:])
				for i := off; i < min(off+BlockSize, n); i++ {
					want[i] = src[i] ^ pad[i-off]
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key%d len=%d: wrapping CTR differs from per-block reference", keyLen*8, n)
			}
		}
	}
}

// TestCTRRejectsShortDst is the regression test for the documented but
// unchecked len(dst) >= len(src) contract.
func TestCTRRejectsShortDst(t *testing.T) {
	e, err := NewEngine(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("short dst did not panic")
		}
	}()
	e.XORKeyStreamCTR(make([]byte, 31), make([]byte, 32), Counter{})
}

// TestCTRDstLongerThanSrc: extra dst capacity is allowed and left
// untouched beyond len(src).
func TestCTRDstLongerThanSrc(t *testing.T) {
	e, err := NewEngine(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 40)
	for i := range dst {
		dst[i] = 0xEE
	}
	e.XORKeyStreamCTR(dst, make([]byte, 20), Counter{PA: 1, VN: 2})
	for i := 20; i < len(dst); i++ {
		if dst[i] != 0xEE {
			t.Fatalf("dst[%d] clobbered beyond len(src)", i)
		}
	}
}

// BenchmarkXORKeyStreamCTR tracks the T-AES keystream rate.
func BenchmarkXORKeyStreamCTR(b *testing.B) {
	e, err := NewEngine([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		e.XORKeyStreamCTR(buf, buf, Counter{PA: 0x1000, VN: uint64(i)})
	}
}
