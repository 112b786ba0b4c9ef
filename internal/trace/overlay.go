package trace

import "fmt"

// Overlay is a delta stream over a shared, read-only spine trace: the
// accesses a protection scheme *adds* (metadata, over-fetch), each
// anchored to a position in the spine. The spine itself — the
// scheme-independent data-access stream — is never copied; a scheme's
// full augmented trace is the merge of the spine with its overlay, in
// anchor order.
//
// Anchors are spine indices with "insert before" semantics: an overlay
// access with anchor k is consumed after k spine accesses, i.e.
// immediately before spine access k. An anchor equal to the spine
// length places the access after the whole spine (end-of-trace
// metadata such as cache drains). Appends must be made in nondecreasing
// anchor order, which every scheme satisfies naturally by walking the
// spine once.
//
// Anchors live in a parallel slice rather than inside Access so the
// Access array stays densely packed for the consumers that iterate it.
type Overlay struct {
	Accesses []Access
	Anchors  []int32
}

// Append adds an overlay access anchored before spine index anchor.
// Anchors must be nondecreasing.
func (o *Overlay) Append(anchor int, a Access) {
	if n := len(o.Anchors); n > 0 && int32(anchor) < o.Anchors[n-1] {
		panic(fmt.Sprintf("trace: overlay anchor %d after %d", anchor, o.Anchors[n-1]))
	}
	o.Accesses = append(o.Accesses, a)
	o.Anchors = append(o.Anchors, int32(anchor))
}

// CoalesceQuantum is the transfer granularity coalescing reasons
// about: an overlay entry may only absorb a follow-up access when its
// own size is a whole number of 64-byte units, so the combined entry
// explodes into exactly the bursts the two entries produced apart.
// The identity holds for any DRAM burst size that divides 64 — every
// geometry in the repo uses 64-byte bursts.
const CoalesceQuantum = 64

// AppendCoalesce adds an overlay access like Append, but first tries
// to merge it into the previous entry. The merge fires only when the
// combined entry is indistinguishable from the pair at the DRAM layer:
// same anchor (no spine access lands between them), same issue cycle,
// kind, class and tags (so attribution and dumps keep their meaning),
// the previous entry covering a non-zero whole number of 64-byte
// units, this access being non-empty and starting exactly where the
// previous one ends. Under those conditions the burst explode of the
// merged entry is bit-identical to the uncoalesced stream — see the
// coalescing invariant in DESIGN.md — while metadata-heavy schemes
// emit several-fold fewer entries (an SGX multi-line MAC or VN fill
// run collapses into one entry). Zero-byte accesses always refuse the
// merge: the DRAM model explodes an empty access into one burst, so
// absorbing it (or growing an empty entry) would change the stream —
// FuzzOverlayAppendCoalesce exercises exactly this corner.
func (o *Overlay) AppendCoalesce(anchor int, a Access) {
	if n := len(o.Accesses); n > 0 && int(o.Anchors[n-1]) == anchor {
		p := &o.Accesses[n-1]
		if p.Cycle == a.Cycle && p.Kind == a.Kind && p.Class == a.Class &&
			p.Tensor == a.Tensor && p.Layer == a.Layer && p.Tile == a.Tile &&
			p.Bytes != 0 && a.Bytes != 0 &&
			p.Bytes%CoalesceQuantum == 0 && p.Addr+uint64(p.Bytes) == a.Addr {
			p.Bytes += a.Bytes
			return
		}
	}
	o.Append(anchor, a)
}

// Len returns the number of overlay accesses.
func (o *Overlay) Len() int { return len(o.Accesses) }

// Reset empties the overlay, keeping the backing arrays so a recycled
// overlay refills without reallocating.
func (o *Overlay) Reset() {
	o.Accesses = o.Accesses[:0]
	o.Anchors = o.Anchors[:0]
}

// ForEachMerged walks the merge of spine and overlay in consumption
// order — overlay accesses with anchor k come immediately before spine
// access k — calling fn for each access. The pointer is only valid for
// the duration of the call. A nil overlay walks the spine alone.
func ForEachMerged(spine *Trace, ov *Overlay, fn func(*Access)) {
	if ov == nil {
		for k := range spine.Accesses {
			fn(&spine.Accesses[k])
		}
		return
	}
	j := 0
	for k := range spine.Accesses {
		for j < len(ov.Accesses) && int(ov.Anchors[j]) <= k {
			fn(&ov.Accesses[j])
			j++
		}
		fn(&spine.Accesses[k])
	}
	for j < len(ov.Accesses) {
		fn(&ov.Accesses[j])
		j++
	}
}

// mergedLen returns the length of the merged stream.
func mergedLen(spine *Trace, ov *Overlay) int {
	n := spine.Len()
	if ov != nil {
		n += ov.Len()
	}
	return n
}

// Materialize flattens the merge of spine and overlay into a fresh
// Trace. The hot pipeline never calls this — the DRAM model consumes
// the two streams directly — but flat-trace consumers (trace dumps,
// per-access tests) use it to see exactly what a scheme's augmented
// trace looks like.
func (o *Overlay) Materialize(spine *Trace) *Trace {
	out := &Trace{Accesses: make([]Access, 0, mergedLen(spine, o))}
	ForEachMerged(spine, o, func(a *Access) {
		out.Accesses = append(out.Accesses, *a)
	})
	return out
}
