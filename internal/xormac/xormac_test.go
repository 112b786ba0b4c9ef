package xormac

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

var testKey = []byte("integ-engine-test-key")

func randBlocks(r *rand.Rand, n, size int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		r.Read(blocks[i]) //nolint:errcheck
	}
	return blocks
}

func TestAggregateOrderIndependence(t *testing.T) {
	// The defining property of XOR-MAC aggregation (and the root of
	// the RePA vulnerability): any permutation yields the same sum.
	f := func(macs []uint64, seed int64) bool {
		ms := make([]MAC, len(macs))
		for i, m := range macs {
			ms[i] = MAC(m)
		}
		forward := AggregateOf(ms)
		r := rand.New(rand.NewSource(seed))
		shuffled := make([]MAC, len(ms))
		copy(shuffled, ms)
		r.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return AggregateOf(shuffled) == forward
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregateIncrementalUpdateEqualsRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	blocks := randBlocks(r, 16, 64)
	macs := make([]MAC, len(blocks))
	var agg Aggregate
	for i, b := range blocks {
		macs[i] = NaiveBlockMAC(testKey, b)
		agg.Add(macs[i])
	}
	// Rewrite block 5.
	blocks[5][0] ^= 0xff
	newMAC := NaiveBlockMAC(testKey, blocks[5])
	agg.Update(macs[5], newMAC)
	macs[5] = newMAC

	if got, want := agg.Sum(), AggregateOf(macs); got != want {
		t.Errorf("incremental aggregate %x != recomputed %x", got, want)
	}
}

func TestAggregateAddRemoveCancels(t *testing.T) {
	f := func(ms []uint64) bool {
		var agg Aggregate
		for _, m := range ms {
			agg.Add(MAC(m))
		}
		before := agg.Sum()
		agg.Add(MAC(0xdeadbeef))
		agg.Remove(MAC(0xdeadbeef))
		return agg.Sum() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregateLenTracksMembership(t *testing.T) {
	var agg Aggregate
	if agg.Len() != 0 {
		t.Fatalf("empty aggregate len = %d", agg.Len())
	}
	agg.Add(1)
	agg.Add(2)
	agg.Add(3)
	if agg.Len() != 3 {
		t.Errorf("len = %d, want 3", agg.Len())
	}
	agg.Remove(2)
	if agg.Len() != 2 {
		t.Errorf("len after remove = %d, want 2", agg.Len())
	}
}

func TestBlockMACBindsEveryPositionField(t *testing.T) {
	blk := []byte("ciphertext block contents 0123456789")
	base := BlockPos{PA: 0x1000, VN: 7, LayerID: 3, FmapIdx: 1, BlkIdx: 42}
	ref := BlockMAC(testKey, blk, base)

	variants := []BlockPos{
		{PA: 0x1040, VN: 7, LayerID: 3, FmapIdx: 1, BlkIdx: 42},
		{PA: 0x1000, VN: 8, LayerID: 3, FmapIdx: 1, BlkIdx: 42},
		{PA: 0x1000, VN: 7, LayerID: 4, FmapIdx: 1, BlkIdx: 42},
		{PA: 0x1000, VN: 7, LayerID: 3, FmapIdx: 2, BlkIdx: 42},
		{PA: 0x1000, VN: 7, LayerID: 3, FmapIdx: 1, BlkIdx: 43},
	}
	names := []string{"PA", "VN", "LayerID", "FmapIdx", "BlkIdx"}
	for i, v := range variants {
		if BlockMAC(testKey, blk, v) == ref {
			t.Errorf("MAC insensitive to %s", names[i])
		}
	}
	if BlockMAC(testKey, blk, base) != ref {
		t.Error("MAC not deterministic")
	}
}

func TestBlockMACDataSensitivity(t *testing.T) {
	pos := BlockPos{PA: 0x40, VN: 1, LayerID: 0, FmapIdx: 0, BlkIdx: 0}
	a := BlockMAC(testKey, []byte("block-a"), pos)
	b := BlockMAC(testKey, []byte("block-b"), pos)
	if a == b {
		t.Error("MACs of different data collide")
	}
}

// TestRePAShuffleDefeatsNaiveMAC reproduces the attack half of
// Algorithm 2: with naive (position-free) MACs, shuffling blocks
// preserves the layer aggregate, so integrity verification passes even
// though decryption would produce garbage.
func TestRePAShuffleDefeatsNaiveMAC(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	blocks := randBlocks(r, 32, 64)

	var sumMAC Aggregate
	for _, b := range blocks {
		sumMAC.Add(NaiveBlockMAC(testKey, b))
	}

	// SHUFFLE_ORDER(MACs): permute the blocks.
	shuffled := make([][]byte, len(blocks))
	copy(shuffled, blocks)
	r.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	var sumShuffled Aggregate
	for _, b := range shuffled {
		sumShuffled.Add(NaiveBlockMAC(testKey, b))
	}

	if sumMAC.Sum() != sumShuffled.Sum() {
		t.Fatal("naive XOR-MAC unexpectedly detected the shuffle (attack model broken)")
	}
}

// TestRePADefensePositionBoundMAC reproduces the defense half: with
// position-bound MACs, verifying blocks at their (shuffled) observed
// positions yields a different aggregate, so the attack is detected.
func TestRePADefensePositionBoundMAC(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	blocks := randBlocks(r, 32, 64)

	pos := func(i int) BlockPos {
		return BlockPos{PA: uint64(0x1000 + 64*i), VN: 1, LayerID: 5, FmapIdx: 0, BlkIdx: uint32(i)}
	}

	var genuine Aggregate
	for i, b := range blocks {
		genuine.Add(BlockMAC(testKey, b, pos(i)))
	}

	// Swap two distinct blocks; each now sits at the other's address.
	perm := make([][]byte, len(blocks))
	copy(perm, blocks)
	i, j := 3, 17
	for string(perm[i]) == string(perm[j]) {
		j++
	}
	perm[i], perm[j] = perm[j], perm[i]

	var observed Aggregate
	for k, b := range perm {
		observed.Add(BlockMAC(testKey, b, pos(k)))
	}

	if observed.Sum() == genuine.Sum() {
		t.Fatal("position-bound XOR-MAC failed to detect re-permutation")
	}
}

func TestModelMACBindsLayerOrder(t *testing.T) {
	l1 := &LayerMAC{LayerID: 1}
	l1.Agg.Add(0xaaaa)
	l2 := &LayerMAC{LayerID: 2}
	l2.Agg.Add(0xbbbb)

	m := NewModelMAC(testKey)
	m.AddLayer(l1)
	m.AddLayer(l2)
	want := m.Sum()

	// Swap the layer payloads while keeping ids: a whole-layer swap.
	s1 := &LayerMAC{LayerID: 1}
	s1.Agg.Add(0xbbbb)
	s2 := &LayerMAC{LayerID: 2}
	s2.Agg.Add(0xaaaa)
	ms := NewModelMAC(testKey)
	ms.AddLayer(s1)
	ms.AddLayer(s2)

	if ms.Sum() == want {
		t.Error("model MAC insensitive to swapping layer contents")
	}
}

func TestModelMACAddRemoveLayer(t *testing.T) {
	l := &LayerMAC{LayerID: 9}
	l.Agg.Add(0x1234)
	m := NewModelMAC(testKey)
	before := m.Sum()
	m.AddLayer(l)
	if m.Sum() == before {
		t.Error("AddLayer had no effect")
	}
	m.RemoveLayer(l)
	if m.Sum() != before {
		t.Error("RemoveLayer did not cancel AddLayer")
	}
}

func TestModelMACInsertionOrderIrrelevantForSameLayers(t *testing.T) {
	// Folding the same (id, aggregate) pairs in any order gives the
	// same model MAC — incrementality requires this.
	layers := []*LayerMAC{
		{LayerID: 0}, {LayerID: 1}, {LayerID: 2}, {LayerID: 3},
	}
	for i, l := range layers {
		l.Agg.Add(MAC(0x1000 + i))
	}
	m1 := NewModelMAC(testKey)
	for _, l := range layers {
		m1.AddLayer(l)
	}
	m2 := NewModelMAC(testKey)
	for i := len(layers) - 1; i >= 0; i-- {
		m2.AddLayer(layers[i])
	}
	if m1.Sum() != m2.Sum() {
		t.Error("model MAC depends on fold order of identical layer set")
	}
}

// TestHMACVectors pins TruncMAC to the first 8 bytes, big-endian, of the
// RFC 4231 HMAC-SHA256 test cases 1, 2 and 6 (the last uses a 131-byte
// key, longer than the SHA-256 block).
func TestHMACVectors(t *testing.T) {
	cases := []struct {
		key, msg []byte
		want     string
	}{
		{
			bytes.Repeat([]byte{0x0b}, 20),
			[]byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
		},
		{
			[]byte("Jefe"),
			[]byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
		},
		{
			bytes.Repeat([]byte{0xaa}, 131),
			[]byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
		},
	}
	for i, tc := range cases {
		full, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		got := TruncMAC(tc.key, tc.msg)
		if want := MAC(binary.BigEndian.Uint64(full)); got != want {
			t.Errorf("case %d: TruncMAC = %#x, want %#x", i, uint64(got), uint64(want))
		}
		if b := got.Bytes(); !bytes.Equal(b[:], full[:MACSize]) {
			t.Errorf("case %d: Bytes() = %x, want prefix %x", i, b, full[:MACSize])
		}
	}
}

// TestTruncMACIsHMACPrefix checks TruncMAC against the full HMAC-SHA256
// digest for arbitrary keys and messages.
func TestTruncMACIsHMACPrefix(t *testing.T) {
	f := func(key, msg []byte) bool {
		h := hmac.New(sha256.New, key)
		h.Write(msg)
		full := h.Sum(nil)
		b := TruncMAC(key, msg).Bytes()
		return bytes.Equal(b[:], full[:MACSize])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !f([]byte("integ-engine-key"), []byte("data block ‖ PA ‖ VN ‖ layer ‖ fmap ‖ blk")) {
		t.Error("TruncMAC is not the HMAC-SHA256 prefix")
	}
}

func TestTruncMACKeySensitivity(t *testing.T) {
	msg := []byte("block contents")
	if TruncMAC([]byte("key-a"), msg) == TruncMAC([]byte("key-b"), msg) {
		t.Error("MACs under different keys collide")
	}
	if TruncMAC([]byte("key-a"), msg) != TruncMAC([]byte("key-a"), msg) {
		t.Error("MAC not deterministic")
	}
}

func TestTruncMACMessageSensitivity(t *testing.T) {
	key := []byte("k")
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return TruncMAC(key, a) == TruncMAC(key, b)
		}
		// Distinct messages should (with overwhelming probability)
		// have distinct MACs; a collision in random testing indicates
		// a broken hash.
		return TruncMAC(key, a) != TruncMAC(key, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
