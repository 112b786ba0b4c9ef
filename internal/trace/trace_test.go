package trace

import "testing"

func TestStatsAccounting(t *testing.T) {
	tr := &Trace{}
	tr.Append(Access{Cycle: 10, Addr: 0, Bytes: 64, Kind: Read, Class: Data, Tensor: IFMap, Layer: 0})
	tr.Append(Access{Cycle: 20, Addr: 64, Bytes: 128, Kind: Write, Class: Data, Tensor: OFMap, Layer: 1})
	tr.Append(Access{Cycle: 5, Addr: 4096, Bytes: 8, Kind: Read, Class: MACMeta, Tensor: Metadata, Layer: 1})
	tr.Append(Access{Cycle: 7, Addr: 8192, Bytes: 8, Kind: Read, Class: VNMeta, Tensor: Metadata, Layer: 0})
	tr.Append(Access{Cycle: 9, Addr: 16384, Bytes: 64, Kind: Read, Class: TreeMeta, Tensor: Metadata, Layer: 0})
	tr.Append(Access{Cycle: 9, Addr: 0, Bytes: 32, Kind: Read, Class: OverFetch, Tensor: IFMap, Layer: 0})

	s := tr.ComputeStats()
	if s.AccessCount != 6 {
		t.Errorf("AccessCount = %d, want 6", s.AccessCount)
	}
	if s.ReadBytes != 64+8+8+64+32 {
		t.Errorf("ReadBytes = %d", s.ReadBytes)
	}
	if s.WriteBytes != 128 {
		t.Errorf("WriteBytes = %d", s.WriteBytes)
	}
	if s.TotalBytes() != s.ReadBytes+s.WriteBytes {
		t.Error("TotalBytes mismatch")
	}
	if s.DataBytes() != 192 {
		t.Errorf("DataBytes = %d, want 192", s.DataBytes())
	}
	if s.MetaBytes() != 8+8+64+32 {
		t.Errorf("MetaBytes = %d", s.MetaBytes())
	}
	if s.DataAccesses != 2 || s.MetaAccesses != 4 {
		t.Errorf("data/meta accesses = %d/%d", s.DataAccesses, s.MetaAccesses)
	}
	if s.HighestCycle != 20 {
		t.Errorf("HighestCycle = %d", s.HighestCycle)
	}
	if s.DistinctLayers != 2 {
		t.Errorf("DistinctLayers = %d", s.DistinctLayers)
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Kind strings wrong")
	}
	for c, want := range map[Class]string{
		Data: "data", MACMeta: "mac", VNMeta: "vn", TreeMeta: "tree", OverFetch: "overfetch",
	} {
		if c.String() != want {
			t.Errorf("Class %d = %q, want %q", c, c.String(), want)
		}
	}
	for tn, want := range map[Tensor]string{
		IFMap: "ifmap", Weights: "weights", OFMap: "ofmap", Metadata: "meta",
	} {
		if tn.String() != want {
			t.Errorf("Tensor %d = %q, want %q", tn, tn.String(), want)
		}
	}
}

func TestEmptyTraceStats(t *testing.T) {
	s := (&Trace{}).ComputeStats()
	if s.TotalBytes() != 0 || s.AccessCount != 0 || s.DistinctLayers != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}
