package trace

import "testing"

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
