// Package trace defines the DRAM access-trace representation shared
// between the systolic-array simulator (which produces traces), the
// memory-protection simulator (which augments them with security
// metadata accesses), and the DRAM timing simulator (which consumes
// them). It mirrors the role of SCALE-Sim's DRAM trace files in the
// paper's evaluation pipeline (§IV-A).
package trace

import "fmt"

// Kind distinguishes reads from writes.
type Kind uint8

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Class tags what an access carries, so overhead can be attributed.
type Class uint8

const (
	// Data is baseline tensor traffic (ifmap/weights/ofmap).
	Data Class = iota
	// MACMeta is per-block message-authentication-code traffic.
	MACMeta
	// VNMeta is version-number (counter) traffic.
	VNMeta
	// TreeMeta is integrity-tree interior-node traffic.
	TreeMeta
	// OverFetch is extra data traffic caused by protection-block
	// granularity mismatch with the tile geometry (partial blocks
	// rounded up to block boundaries).
	OverFetch
	numClasses
)

func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case MACMeta:
		return "mac"
	case VNMeta:
		return "vn"
	case TreeMeta:
		return "tree"
	case OverFetch:
		return "overfetch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Tensor identifies which operand stream an access belongs to.
type Tensor uint8

const (
	IFMap Tensor = iota
	Weights
	OFMap
	Metadata
)

func (t Tensor) String() string {
	switch t {
	case IFMap:
		return "ifmap"
	case Weights:
		return "weights"
	case OFMap:
		return "ofmap"
	case Metadata:
		return "meta"
	}
	return fmt.Sprintf("tensor(%d)", uint8(t))
}

// Access is one DRAM request. Addr is a byte address; Bytes is the
// request size (the DRAM model splits it into 64B bursts). Cycle is
// the accelerator-side issue time, used by the DRAM model to bound
// how early the request may be scheduled.
type Access struct {
	Cycle  uint64
	Addr   uint64
	Bytes  uint32
	Kind   Kind
	Class  Class
	Tensor Tensor
	Layer  uint16
	Tile   uint32
}

// Trace is an ordered sequence of accesses.
type Trace struct {
	Accesses []Access
}

// Append adds an access.
func (t *Trace) Append(a Access) { t.Accesses = append(t.Accesses, a) }

// Reserve ensures capacity for n more accesses, so producers that know
// their access count up front (e.g. the tiling schedule) append
// without reallocation.
func (t *Trace) Reserve(n int) {
	need := len(t.Accesses) + n
	if cap(t.Accesses) >= need {
		return
	}
	grown := make([]Access, len(t.Accesses), need)
	copy(grown, t.Accesses)
	t.Accesses = grown
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }
