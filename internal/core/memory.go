// Package core implements the SeDA protection unit functionally: the
// Crypt Engine (bandwidth-aware AES-CTR encryption, §III-B) and the
// Integ Engine (multi-level integrity verification with optBlk, layer
// and model MACs, §III-C), operating against an untrusted off-chip
// memory model that attacks can tamper with.
//
// This is the paper's primary contribution as executable logic: the
// timing-level counterpart lives in internal/memprot (which accounts
// traffic), while this package actually encrypts, hashes, verifies
// and detects.
package core

import "fmt"

const pageSize = 4096

// Memory is a sparse, byte-addressable untrusted off-chip memory.
// Anything stored here can be read, corrupted, swapped or replayed by
// an attacker (threat model §II-D); the protection unit must detect
// every integrity violation.
type Memory struct {
	pages map[uint64][]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

func (m *Memory) page(idx uint64) []byte {
	p, ok := m.pages[idx]
	if !ok {
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	return p
}

// Write stores data at addr.
func (m *Memory) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.page(addr / pageSize)
		off := addr % pageSize
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read copies n bytes starting at addr. Unwritten bytes read as zero.
func (m *Memory) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		p := m.page(addr / pageSize)
		off := addr % pageSize
		c := copy(dst, p[off:])
		dst = dst[c:]
		addr += uint64(c)
	}
	return out
}

// Corrupt XORs mask into the byte at addr — the attacker's minimal
// tamper.
func (m *Memory) Corrupt(addr uint64, mask byte) {
	p := m.page(addr / pageSize)
	p[addr%pageSize] ^= mask
}

// SwapRegions exchanges the n-byte regions at a and b — the attacker's
// re-permutation primitive (RePA).
func (m *Memory) SwapRegions(a, b uint64, n int) {
	da := m.Read(a, n)
	db := m.Read(b, n)
	m.Write(a, db)
	m.Write(b, da)
}

// Snapshot captures the n-byte region at addr so it can be replayed
// later.
func (m *Memory) Snapshot(addr uint64, n int) []byte {
	return m.Read(addr, n)
}

// Replay restores a snapshot — the attacker's rollback primitive.
func (m *Memory) Replay(addr uint64, snapshot []byte) {
	m.Write(addr, snapshot)
}

func (m *Memory) String() string {
	return fmt.Sprintf("memory{%d pages}", len(m.pages))
}
