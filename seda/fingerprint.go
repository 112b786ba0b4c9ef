package seda

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/model"
)

// PipelineVersion identifies the evaluation semantics of this build:
// the scalesim schedule, the protection-scheme models, and the DRAM
// timing model. It is part of every cache fingerprint, so bump it
// whenever a change moves any figure number — stale cached results
// then stop matching instead of being served. "4" corresponds to the
// parametric-platform pipeline: the fingerprint now covers the full
// derived dram.Config (geometry knobs included), so entries written
// under the old, narrower key format can never alias a parametric
// configuration. Figure numbers are unchanged from "3" (the Table II
// presets derive the identical DRAM config — pinned by
// TestDerivedDRAMConfigGolden and the suite JSON goldens).
const PipelineVersion = "4"

// ConfigFingerprint returns the canonical SHA-256 (hex) of everything
// that determines a RunNetworkOptsCtx evaluation's output: the pipeline
// version, the NPU configuration with its fully derived DRAM timing
// model, the scheme set in plot order, and the network's canonical
// topology encoding. It is the content-address under which
// internal/rescache stores the result rows: equal fingerprints imply
// byte-identical results, and any change to an input changes the
// fingerprint.
//
// The DRAM geometry knobs enter through the derived dram.Config line,
// not the raw struct fields: a knob left at zero (the DDR4-like
// default) and the same knob set explicitly derive the same memory
// system, produce identical results, and deliberately share one
// fingerprint — the cache is content-addressed, not struct-addressed.
func ConfigFingerprint(npu NPUConfig, net *model.Network) string {
	h := sha256.New()
	fmt.Fprintf(h, "seda/v%s\n", PipelineVersion)
	// Floats are encoded exactly (hex mantissa), not via a rounded
	// decimal form, so configs differing below print precision still
	// fingerprint apart.
	fmt.Fprintf(h, "npu|%d:%s|%d|%d|%d|%s|%s|%d\n",
		len(npu.Name), npu.Name, npu.ArrayRows, npu.ArrayCols, npu.SRAMBytes,
		strconv.FormatFloat(npu.FreqHz, 'x', -1, 64),
		strconv.FormatFloat(npu.BandwidthB, 'x', -1, 64),
		npu.Channels)
	// The complete derived DRAM config, field for field. Every field
	// is an integer, so the encoding is exact by construction; the
	// hex-float exactness above already pins the inputs the derivation
	// rounds (FreqHz, BandwidthB).
	d := npu.DRAMConfig()
	fmt.Fprintf(h, "dram|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		d.Channels, d.BanksPerChan, d.RowBytes, d.BurstBytes,
		d.TBurst, d.TCL, d.TRCD, d.TRP, d.TRAS, d.TRefi, d.TRfc,
		d.WindowSize)
	fmt.Fprint(h, "schemes")
	for _, s := range Schemes() {
		fmt.Fprintf(h, "|%d:%d", s.Kind, s.Block)
	}
	fmt.Fprintln(h)
	h.Write(net.CanonicalBytes(nil)) //nolint:errcheck
	return hex.EncodeToString(h.Sum(nil))
}
