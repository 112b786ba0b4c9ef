package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var (
	encKey = []byte("0123456789abcdef")
	macKey = []byte("integ-engine-key")
)

func newUnit(t *testing.T) *Unit {
	t.Helper()
	u, err := NewUnit(encKey, macKey, NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func randData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b) //nolint:errcheck
	return b
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	data := randData(1, 10000) // spans pages
	m.Write(123, data)
	got := m.Read(123, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("read != write across pages")
	}
	// Unwritten regions read as zero.
	z := m.Read(1<<40, 64)
	for _, b := range z {
		if b != 0 {
			t.Fatal("unwritten memory nonzero")
		}
	}
}

func TestMemoryCorrupt(t *testing.T) {
	m := NewMemory()
	m.Write(0, []byte{0xaa})
	m.Corrupt(0, 0xff)
	if got := m.Read(0, 1)[0]; got != 0x55 {
		t.Errorf("corrupted byte = %#x, want 0x55", got)
	}
}

func TestMemorySwapRegions(t *testing.T) {
	m := NewMemory()
	m.Write(0, []byte("aaaa"))
	m.Write(100, []byte("bbbb"))
	m.SwapRegions(0, 100, 4)
	if string(m.Read(0, 4)) != "bbbb" || string(m.Read(100, 4)) != "aaaa" {
		t.Error("swap failed")
	}
}

func TestRoundTrip(t *testing.T) {
	u := newUnit(t)
	id := FmapID{Layer: 3, Fmap: 0}
	data := randData(2, 4096)
	if err := u.WriteFmap(id, 0x1000, data, 512); err != nil {
		t.Fatal(err)
	}
	got, err := u.ReadFmap(id, 0x1000, len(data), 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decrypted data differs from plaintext")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	u := newUnit(t)
	id := FmapID{Layer: 0, Fmap: 0}
	data := randData(3, 1024)
	u.WriteFmap(id, 0, data, 256) //nolint:errcheck
	ct := u.Memory().Read(0, len(data))
	if bytes.Equal(ct, data) {
		t.Fatal("memory holds plaintext")
	}
	// No 16-byte segment should leak through unencrypted.
	for off := 0; off+16 <= len(data); off += 16 {
		if bytes.Equal(ct[off:off+16], data[off:off+16]) {
			t.Fatalf("segment at %d unencrypted", off)
		}
	}
}

func TestDetectsSingleBitTamper(t *testing.T) {
	u := newUnit(t)
	id := FmapID{Layer: 1, Fmap: 2}
	data := randData(4, 2048)
	u.WriteFmap(id, 0x4000, data, 512) //nolint:errcheck
	u.Memory().Corrupt(0x4000+777, 0x01)
	if _, err := u.ReadFmap(id, 0x4000, len(data), 512); err == nil {
		t.Fatal("single-bit tamper not detected")
	}
}

func TestDetectsEveryBlockPosition(t *testing.T) {
	// Tamper each block in turn; detection must fire for all of them.
	for blk := 0; blk < 8; blk++ {
		u := newUnit(t)
		id := FmapID{Layer: 0, Fmap: 0}
		data := randData(int64(blk), 8*256)
		u.WriteFmap(id, 0, data, 256) //nolint:errcheck
		u.Memory().Corrupt(uint64(blk*256), 0x80)
		if _, err := u.ReadFmap(id, 0, len(data), 256); err == nil {
			t.Fatalf("tamper in block %d not detected", blk)
		}
	}
}

func TestDetectsBlockSwapRePA(t *testing.T) {
	// The RePA defense: swapping two ciphertext blocks leaves a naive
	// XOR-MAC unchanged but must change the position-bound aggregate.
	u := newUnit(t)
	id := FmapID{Layer: 5, Fmap: 1}
	data := randData(6, 4*512)
	u.WriteFmap(id, 0x8000, data, 512) //nolint:errcheck
	u.Memory().SwapRegions(0x8000, 0x8000+512, 512)
	if _, err := u.ReadFmap(id, 0x8000, len(data), 512); err == nil {
		t.Fatal("block swap (RePA) not detected")
	}
}

func TestDetectsReplayOfStaleBlock(t *testing.T) {
	u := newUnit(t)
	id := FmapID{Layer: 2, Fmap: 0}
	v1 := randData(7, 1024)
	u.WriteFmap(id, 0, v1, 256) //nolint:errcheck
	stale := u.Memory().Snapshot(0, 256)

	v2 := randData(8, 1024)
	u.WriteFmap(id, 0, v2, 256) //nolint:errcheck
	u.Memory().Replay(0, stale)

	if _, err := u.ReadFmap(id, 0, len(v2), 256); err == nil {
		t.Fatal("replayed stale block not detected (VN binding broken)")
	}
}

func TestRewriteSameDataChangesCiphertext(t *testing.T) {
	// VN increments on every write, so identical plaintext encrypts
	// differently across writes (no deterministic leakage).
	u := newUnit(t)
	id := FmapID{Layer: 0, Fmap: 0}
	data := randData(9, 512)
	u.WriteFmap(id, 0, data, 512) //nolint:errcheck
	ct1 := u.Memory().Snapshot(0, 512)
	u.WriteFmap(id, 0, data, 512) //nolint:errcheck
	ct2 := u.Memory().Snapshot(0, 512)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("rewrite produced identical ciphertext")
	}
	got, err := u.ReadFmap(id, 0, 512, 512)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestReadUnwrittenFmapFails(t *testing.T) {
	u := newUnit(t)
	if _, err := u.ReadFmap(FmapID{Layer: 9}, 0, 64, 64); err == nil {
		t.Fatal("read of unwritten fmap succeeded")
	}
}

func TestBadOptBlkRejected(t *testing.T) {
	u := newUnit(t)
	if err := u.WriteFmap(FmapID{}, 0, []byte{1}, 0); err == nil {
		t.Error("optBlk 0 accepted on write")
	}
	u.WriteFmap(FmapID{}, 0, []byte{1}, 64) //nolint:errcheck
	if _, err := u.ReadFmap(FmapID{}, 0, 1, -1); err == nil {
		t.Error("optBlk -1 accepted on read")
	}
}

// TestBadGeometryRejected: ReadFmap and VerifyModel return a core
// geometry error, rather than panicking or reporting a MAC mismatch,
// for a non-positive optBlk or a negative length.
func TestBadGeometryRejected(t *testing.T) {
	id := FmapID{Layer: 1, Fmap: 2}
	for _, tc := range []struct {
		name      string
		n, optBlk int
	}{
		{"optBlk 0", 64, 0},
		{"optBlk -1", 64, -1},
		{"n -1", -1, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := newUnit(t)
			if err := u.WriteFmap(id, 0, make([]byte, 64), 64); err != nil {
				t.Fatal(err)
			}
			if err := u.SealFmap(id); err != nil {
				t.Fatal(err)
			}
			_, readErr := u.ReadFmap(id, 0, tc.n, tc.optBlk)
			verifyErr := u.VerifyModel(func(FmapID) (uint64, int, int) { return 0, tc.n, tc.optBlk })
			for fn, err := range map[string]error{"ReadFmap": readErr, "VerifyModel": verifyErr} {
				var ie *IntegrityError
				if err == nil || errors.As(err, &ie) || !strings.HasPrefix(err.Error(), "core: ") {
					t.Errorf("%s err = %v, want a core: geometry error", fn, err)
				}
			}
		})
	}
}

func TestNewUnitValidation(t *testing.T) {
	if _, err := NewUnit([]byte("short"), macKey, NewMemory()); err == nil {
		t.Error("bad enc key accepted")
	}
	if _, err := NewUnit(encKey, nil, NewMemory()); err == nil {
		t.Error("empty mac key accepted")
	}
}

func TestModelMACSealAndVerify(t *testing.T) {
	u := newUnit(t)
	type placement struct {
		addr   uint64
		n, blk int
	}
	place := map[FmapID]placement{
		{Layer: 0, Fmap: 100}: {0x0000, 2048, 512},
		{Layer: 1, Fmap: 100}: {0x2000, 1024, 256},
		{Layer: 2, Fmap: 100}: {0x4000, 4096, 512},
	}
	for id, p := range place {
		u.WriteFmap(id, p.addr, randData(int64(id.Layer), p.n), p.blk) //nolint:errcheck
		if err := u.SealFmap(id); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(id FmapID) (uint64, int, int) {
		p := place[id]
		return p.addr, p.n, p.blk
	}
	if err := u.VerifyModel(fetch); err != nil {
		t.Fatalf("clean model failed verification: %v", err)
	}
	// Tamper one weight byte: model MAC must catch it.
	u.Memory().Corrupt(0x2000+100, 0x40)
	if err := u.VerifyModel(fetch); err == nil {
		t.Fatal("weight tamper not detected by model MAC")
	}
}

func TestSealTwiceFails(t *testing.T) {
	u := newUnit(t)
	id := FmapID{Layer: 0, Fmap: 7}
	u.WriteFmap(id, 0, []byte("weights!"), 64) //nolint:errcheck
	if err := u.SealFmap(id); err != nil {
		t.Fatal(err)
	}
	if err := u.SealFmap(id); err == nil {
		t.Error("double seal accepted")
	}
	if err := u.SealFmap(FmapID{Layer: 42}); err == nil {
		t.Error("sealing unwritten fmap accepted")
	}
}

func TestIntegrityErrorMessages(t *testing.T) {
	e := &IntegrityError{Fmap: FmapID{Layer: 3, Fmap: 1}, Got: 1, Want: 2}
	if e.Error() == "" {
		t.Error("empty error message")
	}
	me := &IntegrityError{Model: true, Got: 1, Want: 2}
	if me.Error() == e.Error() {
		t.Error("model and layer errors indistinguishable")
	}
}

func TestRoundTripProperty(t *testing.T) {
	u := newUnit(t)
	f := func(seed int64, sizeHint uint16, blkHint uint8) bool {
		n := int(sizeHint)%4096 + 1
		blk := 64 << (blkHint % 4) // 64..512
		id := FmapID{Layer: uint32(seed & 0xff), Fmap: uint32(sizeHint)}
		data := randData(seed, n)
		addr := uint64(sizeHint) * 8192
		if err := u.WriteFmap(id, addr, data, blk); err != nil {
			return false
		}
		got, err := u.ReadFmap(id, addr, n, blk)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGranularityTable(t *testing.T) {
	rows := GranularityTable()
	if len(rows) != 3 {
		t.Fatalf("Table I has %d rows, want 3", len(rows))
	}
	want := []string{"optBlk", "layer", "model"}
	for i, r := range rows {
		if r.Granularity != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Granularity, want[i])
		}
		if r.Flexibility == "" || r.OffChipAccess == "" || r.Storage == "" {
			t.Errorf("row %d incomplete: %+v", i, r)
		}
	}
}
