package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/explore"
	"repro/internal/failpoint"
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
//
// The parameters resolve through explore.ParseRequest, which holds the
// defaults; the router derives its affinity key from the same call.
func (s *API) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("spec") == "" {
		badRequest(w, "missing spec (e.g. spec=rows=16:256:2x,channels=2|4)")
		return
	}
	req, err := explore.ParseRequest(q.Get("spec"), q.Get("base"), q.Get("workloads"), q.Get("scheme"), q.Get("margin"))
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
	if n := req.Spec.NumPoints(); n > maxPoints {
		badRequest(w, "grid has %d points, limit %d (narrow the spec or raise -max-explore-points)", n, maxPoints)
		return
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
	etag := exploreETag(req, csvOut)
	if inmMatches(r.Header.Get("If-None-Match"), etag) {
		setValidators(w, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if err := failpoint.Inject(r.Context(), FailpointExplore); err != nil {
		s.sweepError(w, r, err)
		return
	}
	res, err := explore.Run(r.Context(), req.Spec, req.Base, explore.Options{
		Workloads: req.Workloads,
		Scheme:    req.Scheme,
		Cache:     s.cache,
		Suite:     s.opts,
		Margin:    req.Margin,
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
func exploreETag(req *explore.Request, csvOut bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "explore|surrogate=%s|spec=%s|scheme=%s|margin=%s|csv=%v\n",
		explore.SurrogateVersion, req.Spec.Canonical(), req.Scheme.Name(),
		strconv.FormatFloat(req.Margin, 'x', -1, 64), csvOut)
	for _, n := range req.Workloads {
		fmt.Fprintln(h, seda.ConfigFingerprint(req.Base, n))
	}
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
}

// ExploreAffinityKey is the cluster-routing affinity key for an
// exploration: like the ETag it binds the canonical spec, base
// fingerprints, scheme and margin, but not the body format — CSV and
// JSON views of one exploration share a replica's warm confirmations.
func ExploreAffinityKey(req *explore.Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "explore-affinity|spec=%s|scheme=%s|margin=%s\n",
		req.Spec.Canonical(), req.Scheme.Name(), strconv.FormatFloat(req.Margin, 'x', -1, 64))
	for _, n := range req.Workloads {
		fmt.Fprintln(h, seda.ConfigFingerprint(req.Base, n))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
