// Package aesx provides the AES engine of SeDA's Crypt Engine: the
// FIPS-197 key schedule, counter-mode keystream generation, and the
// bandwidth-aware OTP derivation (B-AES).
//
// The block cipher itself is the standard library's crypto/aes. The
// KeyExpansion routine stays in-house because B-AES derives one pad
// per 128-bit segment by XORing the base OTP with the round keys of
// the engine's key schedule (Fig. 2(b), §III-B), and crypto/aes does
// not expose its round keys.
package aesx

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes (128 bits).
const BlockSize = 16

// Engine is a single AES engine instance with a fixed expanded key
// schedule. It models the hardware unit in Fig. 2(b): one engine
// encrypts one 128-bit block at a time.
type Engine struct {
	block     cipher.Block
	rounds    int        // 10, 12 or 14
	roundKeys [][16]byte // rounds+1 round keys of 16 bytes each
}

// NewEngine expands key (16, 24 or 32 bytes) and returns an engine.
func NewEngine(key []byte) (*Engine, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aesx: invalid key size %d (want 16, 24 or 32)", len(key))
	}
	rounds := len(key)/4 + 6 // Nr = Nk + 6 (FIPS-197 Fig. 4)
	return &Engine{block: block, rounds: rounds, roundKeys: expandKey(key, rounds)}, nil
}

// Rounds returns the number of AES rounds (10 for AES-128, 12 for
// AES-192, 14 for AES-256).
func (e *Engine) Rounds() int { return e.rounds }

// RoundKey returns a copy of round key i (0 <= i <= Rounds()). Round
// key 0 is the original cipher key's first 128 bits.
func (e *Engine) RoundKey(i int) [16]byte {
	if i < 0 || i > e.rounds {
		panic(fmt.Sprintf("aesx: round key index %d out of range [0,%d]", i, e.rounds))
	}
	return e.roundKeys[i]
}

// NumRoundKeys returns the number of round keys in the schedule
// (Rounds()+1).
func (e *Engine) NumRoundKeys() int { return e.rounds + 1 }

// EncryptBlock encrypts one 16-byte block src into dst. dst and src
// may be the same slice.
func (e *Engine) EncryptBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesx: EncryptBlock buffers must be at least 16 bytes")
	}
	e.block.Encrypt(dst, src)
}

// xtime multiplies by x (i.e. {02}) in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return (b << 1) ^ 0x1b
	}
	return b << 1
}

// expandKey implements the FIPS-197 KeyExpansion routine and packs the
// resulting word schedule into 16-byte round keys.
func expandKey(key []byte, rounds int) [][16]byte {
	nk := len(key) / 4
	nw := 4 * (rounds + 1)
	w := make([]uint32, nw)
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1) << 24
	for i := nk; i < nw; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ rcon
			rcon = uint32(xtime(byte(rcon>>24))) << 24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	rks := make([][16]byte, rounds+1)
	for r := 0; r <= rounds; r++ {
		for c := 0; c < 4; c++ {
			binary.BigEndian.PutUint32(rks[r][4*c:], w[4*r+c])
		}
	}
	return rks
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 |
		uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 |
		uint32(sbox[w&0xff])
}
