package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/explore"
	"repro/internal/failpoint"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/seda"
)

// FailpointExplore fires at the top of the explore handler with the
// request context, after parameter validation and the ETag
// short-circuit — the last point before the exploration engine. See
// internal/failpoint.
const FailpointExplore = "serve.explore"

// DefaultMaxExplorePoints bounds /v1/explore grids when -max-explore-points
// is not given. Tighter than the engine's own guard: a service request
// should stay interactive, and the confirmation pass behind a large
// grid competes for the same bounded compute slots as /v1/sweep.
const DefaultMaxExplorePoints = 2048

// handleExplore answers
//
//		/v1/explore?spec=rows=16:64:2x,channels=2|4[&base=edge][&workloads=let,ncf]
//		           [&scheme=SeDA][&margin=0.1][&format=csv]
//
//	  - spec (required) is the grid specification, axes comma-separated:
//	    rows=16:256:2x,channels=2|4. See internal/explore.ParseSpec.
//	  - base names the platform preset the grid perturbs (default edge).
//	  - workloads optionally restricts the objective to a comma-separated
//	    subset (default: the full benchmark suite).
//	  - scheme selects the protection scheme explored under (default SeDA).
//	  - margin overrides the surrogate's pruning margin, 0 < m < 1
//	    (default: derived from the calibration error).
//	  - The body is CSV when the request asks for it (Accept: text/csv or
//	    ?format=csv), JSON otherwise.
func (s *API) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	rawSpec := q.Get("spec")
	if rawSpec == "" {
		badRequest(w, "missing spec (e.g. spec=rows=16:256:2x,channels=2|4)")
		return
	}
	spec, err := explore.ParseSpec(rawSpec)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	maxPoints := s.MaxExplore
	if maxPoints <= 0 {
		maxPoints = DefaultMaxExplorePoints
	}
	// Enforce the cap before the If-None-Match short-circuit: the cap is
	// operator state the ETag does not bind, so a client revalidating a
	// grid the server no longer accepts must see the 400, not a 304.
	if n := spec.NumPoints(); n > maxPoints {
		badRequest(w, "grid has %d points, limit %d (narrow the spec or raise -max-explore-points)", n, maxPoints)
		return
	}

	baseName := q.Get("base")
	if baseName == "" {
		baseName = "edge"
	}
	base, err := seda.NPUByName(baseName)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	scheme := memprot.SchemeSeDA
	if name := q.Get("scheme"); name != "" {
		if scheme, err = seda.SchemeByName(name); err != nil {
			badRequest(w, "%v", err)
			return
		}
	}

	nets, err := ParseWorkloads(q.Get("workloads"))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	var margin float64
	if raw := q.Get("margin"); raw != "" {
		margin, err = strconv.ParseFloat(raw, 64)
		if err != nil || margin <= 0 || margin >= 1 {
			badRequest(w, "margin %q must be a number in (0, 1)", raw)
			return
		}
	}

	csvOut, err := wantCSV(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	// Like /v1/sweep, the representation is fully determined by the
	// request inputs plus the pipeline and surrogate versions (the
	// engine is deterministic end to end), so a strong ETag needs no
	// evaluation and a matching If-None-Match revalidates for free.
	etag := exploreETag(spec, base, nets, scheme, margin, csvOut)
	if inmMatches(r.Header.Get("If-None-Match"), etag) {
		setValidators(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if err := failpoint.Inject(r.Context(), FailpointExplore); err != nil {
		s.sweepError(w, r, err)
		return
	}
	res, err := explore.Run(r.Context(), spec, base, explore.Options{
		Workloads: nets,
		Scheme:    scheme,
		Cache:     s.cache,
		Suite:     s.opts,
		Margin:    margin,
		MaxPoints: maxPoints,
	})
	if err != nil {
		if errors.Is(err, explore.ErrUsage) {
			badRequest(w, "%v", err)
			return
		}
		s.sweepError(w, r, err)
		return
	}

	setValidators(w, etag)
	if csvOut {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		res.WriteCSV(w) //nolint:errcheck // client gone mid-stream
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.WriteJSON(w) //nolint:errcheck // client gone mid-stream
}

// exploreETag derives the strong validator for one exploration
// representation: a hash over the canonical spec, the per-workload
// config fingerprints of the base platform (which already bind the
// pipeline version, base NPU, scheme set and topologies), the explored
// scheme, the surrogate version, the margin and the body format.
func exploreETag(spec *explore.Spec, base seda.NPUConfig, nets []*model.Network, scheme memprot.Scheme, margin float64, csvOut bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "explore|surrogate=%s|spec=%s|scheme=%s|margin=%s|csv=%v\n",
		explore.SurrogateVersion, spec.Canonical(), scheme.Name(),
		strconv.FormatFloat(margin, 'x', -1, 64), csvOut)
	for _, n := range nets {
		fmt.Fprintln(h, seda.ConfigFingerprint(base, n))
	}
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
}

// ExploreAffinityKey is the cluster-routing affinity key for an
// exploration: like the ETag it binds the canonical spec, base
// fingerprints, scheme and margin, but not the body format — CSV and
// JSON views of one exploration share a replica's warm confirmations.
func ExploreAffinityKey(spec *explore.Spec, base seda.NPUConfig, nets []*model.Network, scheme memprot.Scheme, margin float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "explore-affinity|spec=%s|scheme=%s|margin=%s\n",
		spec.Canonical(), scheme.Name(), strconv.FormatFloat(margin, 'x', -1, 64))
	for _, n := range nets {
		fmt.Fprintln(h, seda.ConfigFingerprint(base, n))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ParseWorkloads resolves a comma-separated workload list against the
// benchmark suite (case handled by model.ByName); empty selects the
// full suite. A repeated name keeps only its first occurrence, so
// "let,let" denotes the same result — body, ETag and affinity key — as
// "let".
func ParseWorkloads(raw string) ([]*model.Network, error) {
	if raw == "" {
		return model.All(), nil
	}
	var nets []*model.Network
	spelled := make(map[string]bool) // a repeated spelling skips the lookup
	picked := make(map[string]bool)  // resolved names; catches case variants
	for _, name := range strings.Split(raw, ",") {
		name = strings.TrimSpace(name)
		if spelled[name] {
			continue
		}
		spelled[name] = true
		n := model.ByName(name)
		if n == nil {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(model.Names(), ", "))
		}
		if !picked[n.Name] {
			picked[n.Name] = true
			nets = append(nets, n)
		}
	}
	return nets, nil
}
