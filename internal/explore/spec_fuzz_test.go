package explore

import (
	"math"
	"math/big"
	"testing"
)

// FuzzParseSpec checks the grid-spec parser, which reads /v1/explore
// input from the network. For every spec it accepts, the canonical
// form re-parses to the same grid (equal Canonical and NumPoints), and
// NumPoints is at least one and saturates at math.MaxInt instead of
// wrapping.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"rows=32:256,sram=480K:24M,channels=2|4|8,rowbytes=1K:4K",
		"rows=16:256:1.5x,cols=8|16,window=4:64:+4",
		"freq=1e9:3e9:+0.5G,bw=10G|20G|2.5e10",
		"burstbytes=32|64,banks=8:32,ROWS = 1|2",
		"rows=1:4096:+1,cols=1:4096:+1,sram=1:4096:+1,channels=1:4096:+1,banks=1:4096:+1,window=1:4096:+1",
		"rows=32:64:1x",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, in, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point:\n first %q\nsecond %q", in, canon, got)
		}
		n := s.NumPoints()
		if got := again.NumPoints(); got != n {
			t.Fatalf("%q: NumPoints %d, re-parsed canonical form has %d", in, n, got)
		}
		want := big.NewInt(1)
		for _, ax := range s.axes {
			want.Mul(want, big.NewInt(int64(len(ax.values))))
		}
		if want.Cmp(big.NewInt(math.MaxInt)) > 0 {
			want.SetInt64(math.MaxInt)
		}
		if n < 1 || int64(n) != want.Int64() {
			t.Fatalf("%q: NumPoints %d, want %s (saturating at math.MaxInt)", in, n, want)
		}
	})
}
