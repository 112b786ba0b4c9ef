package aesx

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C example vectors.
func TestEncryptFIPS197Vectors(t *testing.T) {
	cases := []struct {
		name, key, pt, ct string
	}{
		{
			name: "AES-128",
			key:  "000102030405060708090a0b0c0d0e0f",
			pt:   "00112233445566778899aabbccddeeff",
			ct:   "69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			name: "AES-192",
			key:  "000102030405060708090a0b0c0d0e0f1011121314151617",
			pt:   "00112233445566778899aabbccddeeff",
			ct:   "dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			name: "AES-256",
			key:  "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			pt:   "00112233445566778899aabbccddeeff",
			ct:   "8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(mustHex(t, tc.key))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 16)
			e.EncryptBlock(got, mustHex(t, tc.pt))
			if want := mustHex(t, tc.ct); !bytes.Equal(got, want) {
				t.Errorf("ciphertext = %x, want %x", got, want)
			}
		})
	}
}

// FIPS-197 Appendix A.1 key expansion spot checks for AES-128.
func TestKeyExpansionAES128(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	e, err := NewEngine(key)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rounds() != 10 {
		t.Fatalf("rounds = %d, want 10", e.Rounds())
	}
	if e.NumRoundKeys() != 11 {
		t.Fatalf("num round keys = %d, want 11", e.NumRoundKeys())
	}
	rk0 := e.RoundKey(0)
	if !bytes.Equal(rk0[:], key) {
		t.Errorf("round key 0 = %x, want original key %x", rk0, key)
	}
	// w40..w43 from FIPS-197 Appendix A.1.
	wantLast := mustHex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6")
	rk10 := e.RoundKey(10)
	if !bytes.Equal(rk10[:], wantLast) {
		t.Errorf("round key 10 = %x, want %x", rk10, wantLast)
	}
}

func TestKeyExpansionAES256SpotCheck(t *testing.T) {
	// FIPS-197 Appendix A.3 key.
	key := mustHex(t, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
	e, err := NewEngine(key)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rounds() != 14 {
		t.Fatalf("rounds = %d, want 14", e.Rounds())
	}
	// For AES-256 the first two round keys are the two halves of the
	// cipher key (w0..w7 are copied verbatim).
	rk0, rk1 := e.RoundKey(0), e.RoundKey(1)
	if !bytes.Equal(rk0[:], key[:16]) {
		t.Errorf("round key 0 = %x, want %x", rk0, key[:16])
	}
	if !bytes.Equal(rk1[:], key[16:]) {
		t.Errorf("round key 1 = %x, want %x", rk1, key[16:])
	}
}

func TestNewEngineRejectsBadKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 23, 25, 31, 33, 64} {
		if _, err := NewEngine(make([]byte, n)); err == nil {
			t.Errorf("NewEngine accepted %d-byte key", n)
		}
	}
}

func TestRoundKeyPanicsOutOfRange(t *testing.T) {
	e, _ := NewEngine(make([]byte, 16))
	for _, i := range []int{-1, 11, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RoundKey(%d) did not panic", i)
				}
			}()
			e.RoundKey(i)
		}()
	}
}

func TestEncryptBlockInPlace(t *testing.T) {
	e, _ := NewEngine(mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	buf := mustHex(t, "00112233445566778899aabbccddeeff")
	e.EncryptBlock(buf, buf)
	if want := mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a"); !bytes.Equal(buf, want) {
		t.Errorf("in-place encrypt = %x, want %x", buf, want)
	}
}

func TestEncryptBlockShortBufferPanics(t *testing.T) {
	e, _ := NewEngine(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Error("EncryptBlock with short buffer did not panic")
		}
	}()
	e.EncryptBlock(make([]byte, 8), make([]byte, 8))
}

// TestKeyScheduleDrivesReferenceCipher checks expandKey against
// crypto/aes: the FIPS-197 round functions below, keyed only by
// expandKey's schedule, must reproduce crypto/aes for random keys of
// every size. A wrong round key anywhere in the schedule changes the
// ciphertext.
func TestKeyScheduleDrivesReferenceCipher(t *testing.T) {
	for _, ks := range []int{16, 24, 32} {
		f := func(key [32]byte, pt [16]byte) bool {
			block, err := aes.NewCipher(key[:ks])
			if err != nil {
				return false
			}
			var want [16]byte
			block.Encrypt(want[:], pt[:])
			return referenceEncrypt(expandKey(key[:ks], ks/4+6), pt[:]) == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("key size %d: %v", ks, err)
		}
	}
}

// referenceEncrypt is the FIPS-197 §5.1 cipher over a 4x4
// column-major state (state[r][c] holds byte 4*c+r of the block),
// driven by an explicit round-key schedule.
func referenceEncrypt(roundKeys [][16]byte, src []byte) [16]byte {
	var s [4][4]byte
	for i := 0; i < 16; i++ {
		s[i%4][i/4] = src[i]
	}
	addRoundKey := func(rk *[16]byte) {
		for i := 0; i < 16; i++ {
			s[i%4][i/4] ^= rk[i]
		}
	}
	subShift := func() {
		for r := 0; r < 4; r++ {
			var row [4]byte
			for c := 0; c < 4; c++ {
				row[c] = sbox[s[r][(c+r)%4]]
			}
			s[r] = row
		}
	}
	mixColumns := func() {
		for c := 0; c < 4; c++ {
			a0, a1, a2, a3 := s[0][c], s[1][c], s[2][c], s[3][c]
			s[0][c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
			s[1][c] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
			s[2][c] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
			s[3][c] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
		}
	}
	last := len(roundKeys) - 1
	addRoundKey(&roundKeys[0])
	for r := 1; r < last; r++ {
		subShift()
		mixColumns()
		addRoundKey(&roundKeys[r])
	}
	subShift()
	addRoundKey(&roundKeys[last])
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i] = s[i%4][i/4]
	}
	return out
}
