package tiling

import (
	"testing"
	"testing/quick"
)

func TestRounding(t *testing.T) {
	if RoundDown(100, 64) != 64 || RoundDown(64, 64) != 64 || RoundDown(63, 64) != 0 {
		t.Error("RoundDown wrong")
	}
	if RoundUp(100, 64) != 128 || RoundUp(64, 64) != 64 || RoundUp(1, 64) != 64 {
		t.Error("RoundUp wrong")
	}
}

func TestBlocksTouched(t *testing.T) {
	cases := []struct {
		addr, n, block, want uint64
	}{
		{0, 64, 64, 1},
		{0, 65, 64, 2},
		{63, 2, 64, 2},
		{64, 64, 64, 1},
		{0, 512, 64, 8},
		{10, 0, 64, 0},
		{100, 1, 512, 1},
		{511, 2, 512, 2},
	}
	for _, c := range cases {
		if got := BlocksTouched(c.addr, c.n, c.block); got != c.want {
			t.Errorf("BlocksTouched(%d,%d,%d) = %d, want %d", c.addr, c.n, c.block, got, c.want)
		}
	}
}

func TestReadOverFetch(t *testing.T) {
	// Aligned run: no over-fetch.
	if got := ReadOverFetch(0, 512, 512); got != 0 {
		t.Errorf("aligned overfetch = %d", got)
	}
	// 300B run inside one 512B block: fetch 512, overfetch 212.
	if got := ReadOverFetch(0, 300, 512); got != 212 {
		t.Errorf("overfetch = %d, want 212", got)
	}
	// Straddling: [500, 600) with 512B blocks touches 2 blocks = 1024.
	if got := ReadOverFetch(500, 100, 512); got != 924 {
		t.Errorf("straddle overfetch = %d, want 924", got)
	}
	// Finer blocks reduce over-fetch for the same run.
	if f64, f512 := ReadOverFetch(500, 100, 64), ReadOverFetch(500, 100, 512); f64 >= f512 {
		t.Errorf("64B overfetch %d >= 512B overfetch %d", f64, f512)
	}
}

func TestOverFetchProperty(t *testing.T) {
	f := func(addr uint32, n uint16, blkExp uint8) bool {
		block := uint64(64) << (blkExp % 5) // 64..1024
		a, ln := uint64(addr), uint64(n)
		of := ReadOverFetch(a, ln, block)
		if ln == 0 {
			return of == 0
		}
		// Over-fetch is bounded by 2*(block-1) and the fetched span is
		// exactly blocks*block.
		return of < 2*block && BlocksTouched(a, ln, block)*block == ln+of
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteRMW(t *testing.T) {
	// Fully covered block: no RMW.
	if got := WriteRMWBytes(512, 512, 512); got != 0 {
		t.Errorf("aligned write RMW = %d", got)
	}
	// Partial write needs the uncovered remainder read back.
	if got := WriteRMWBytes(0, 100, 512); got != 412 {
		t.Errorf("partial write RMW = %d, want 412", got)
	}
}
