package explore

import (
	"fmt"
	"strconv"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/seda"
)

// Request is one resolved exploration request: what the replica
// evaluates, what its ETag and the router's affinity key hash, and
// what seda-sweep -explore runs. Every front end resolves its raw
// parameters through ParseRequest, so two spellings of one exploration
// denote the same Request everywhere.
type Request struct {
	Spec      *Spec
	Base      seda.NPUConfig
	Workloads []*model.Network
	Scheme    memprot.Scheme
	Margin    float64 // 0 = derived from the calibration (see Options.Margin)
}

// ParseRequest resolves raw exploration parameters. Empty values take
// the defaults: base edge, the full suite (model.ParseList), scheme
// SeDA and a derived margin. An explicit margin must lie in (0, 1).
func ParseRequest(spec, base, workloads, scheme, margin string) (*Request, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if base == "" {
		base = "edge"
	}
	npu, err := seda.NPUByName(base)
	if err != nil {
		return nil, err
	}
	sch := memprot.SchemeSeDA
	if scheme != "" {
		if sch, err = seda.SchemeByName(scheme); err != nil {
			return nil, err
		}
	}
	nets, err := model.ParseList(workloads)
	if err != nil {
		return nil, err
	}
	var m float64
	if margin != "" {
		m, err = strconv.ParseFloat(margin, 64)
		if err != nil || !(m > 0 && m < 1) {
			return nil, fmt.Errorf("margin %q must be a number in (0, 1)", margin)
		}
	}
	return &Request{Spec: s, Base: npu, Workloads: nets, Scheme: sch, Margin: m}, nil
}
