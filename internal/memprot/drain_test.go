package memprot

import (
	"testing"

	"repro/internal/trace"
)

func TestSGXDrainWritesBackDirtyMetadata(t *testing.T) {
	// An inference leaves dirty VN/MAC lines (from ofmap writes) in
	// the SGX caches; the drain must surface them as metadata writes
	// on the final layer.
	net := edgeNet(t, "let")
	r := protect(t, SchemeSGX64, net)
	last := r.Layers[len(r.Layers)-1]
	var drainWrites uint64
	for _, a := range last.Trace.Accesses {
		if a.Kind == trace.Write && a.Tensor == trace.Metadata &&
			(a.Class == trace.MACMeta || a.Class == trace.VNMeta) {
			drainWrites += uint64(a.Bytes)
		}
	}
	if drainWrites == 0 {
		t.Error("no metadata writebacks found on final layer after drain")
	}
}

func TestNonSGXSchemesHaveNoDrain(t *testing.T) {
	net := edgeNet(t, "let")
	for _, s := range []Scheme{SchemeBaseline, SchemeMGX64, SchemeSeDA} {
		r := protect(t, s, net)
		last := r.Layers[len(r.Layers)-1]
		for _, a := range last.Trace.Accesses {
			if a.Class == trace.VNMeta {
				t.Errorf("%s: unexpected VN metadata access", s.Name())
			}
		}
	}
}

func TestDrainPreservesConservation(t *testing.T) {
	// After the drain, trace byte totals still match the overhead
	// counters (the drain updates both).
	net := edgeNet(t, "alex")
	r := protect(t, SchemeSGX512, net)
	for _, pl := range r.Layers {
		if meta := metaBytes(pl.Trace); meta != pl.Overhead.MetaBytes() {
			t.Fatalf("layer %d: trace meta %d != counters %d",
				pl.LayerID, meta, pl.Overhead.MetaBytes())
		}
	}
}
