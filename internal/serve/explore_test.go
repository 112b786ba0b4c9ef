package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/explore"
)

// TestExploreEndpoint walks the happy path on a tiny grid: JSON body
// with a non-empty confirmed frontier, cache-backed confirmations, and
// a second request revalidating via If-None-Match.
func TestExploreEndpoint(t *testing.T) {
	h, cache := testHandler(t)
	url := "/v1/explore?spec=rows%3D16%7C32,channels%3D2%7C4&workloads=let"

	rec := doReq(t, h, url, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		PipelineVersion  string `json:"pipeline_version"`
		SurrogateVersion string `json:"surrogate_version"`
		Spec             string `json:"spec"`
		Base             string `json:"base"`
		Scheme           string `json:"scheme"`
		PointsTotal      int    `json:"points_total"`
		PointsConfirmed  int    `json:"points_confirmed"`
		Frontier         []struct {
			Name       string `json:"name"`
			Confirmed  bool   `json:"confirmed"`
			ExecCycles uint64 `json:"exec_cycles"`
		} `json:"frontier"`
		Points []struct {
			Name string `json:"name"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.PointsTotal != 4 || len(doc.Points) != 4 {
		t.Fatalf("points_total %d / points %d, want 4", doc.PointsTotal, len(doc.Points))
	}
	if doc.Base != "edge" || doc.Scheme != "SeDA" || doc.SurrogateVersion == "" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range doc.Frontier {
		if !p.Confirmed || p.ExecCycles == 0 {
			t.Fatalf("frontier point %s unconfirmed", p.Name)
		}
	}
	if doc.PointsConfirmed == 0 || cache.Stats().Computes == 0 {
		t.Fatal("no cycle-accurate confirmations ran")
	}

	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	rec = doReq(t, h, url, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", rec.Code)
	}

	// A different spec (or format) must move the tag.
	rec = doReq(t, h, "/v1/explore?spec=rows%3D16%7C32,channels%3D2&workloads=let", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Fatalf("different spec: status %d, want 200", rec.Code)
	}
}

func TestExploreEndpointCSV(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/v1/explore?spec=channels%3D2%7C4&workloads=let&format=csv", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("content-type %q", ct)
	}
	recs, err := csv.NewReader(bytes.NewReader(rec.Body.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "name" { // header + 2 points
		t.Fatalf("csv shape %v", recs)
	}
}

func TestExploreEndpointBadRequests(t *testing.T) {
	h, _ := testHandler(t)
	cases := []struct {
		url  string
		want string
	}{
		{"/v1/explore", "missing spec"},
		{"/v1/explore?spec=warp%3D1%7C2", "unknown axis"},
		{"/v1/explore?spec=channels%3D2&base=tpu9", "unknown npu"},
		{"/v1/explore?spec=channels%3D2&scheme=ROT13", "unknown scheme"},
		{"/v1/explore?spec=channels%3D2&workloads=nope", "unknown workload"},
		{"/v1/explore?spec=channels%3D2&workloads=let&format=tsv", "unknown format"},
	}
	for _, tc := range cases {
		rec := doReq(t, h, tc.url, nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: got %d %q, want 400 containing %q", tc.url, rec.Code, rec.Body.String(), tc.want)
		}
	}
}

// TestExploreEndpointGridCap: a grid over DefaultMaxExplorePoints
// answers 400, not a long evaluation — even when the client presents
// the grid's ETag (the cap check runs ahead of the If-None-Match
// short-circuit, so no 304 can revive a grid the server does not
// accept).
func TestExploreEndpointGridCap(t *testing.T) {
	h, _ := testHandler(t)
	const url = "/v1/explore?spec=channels%3D1%3A2049%3A%2B1&workloads=let"
	rec := doReq(t, h, url, nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "grid has 2049 points, limit 2048") {
		t.Fatalf("got %d %q, want 400 with grid-size rejection", rec.Code, rec.Body.String())
	}

	// The ETag this grid's representation would carry.
	req, err := explore.ParseRequest("channels=1:2049:+1", "", "let", "")
	if err != nil {
		t.Fatal(err)
	}
	etag := exploreETag(req, false)
	rec = doReq(t, h, url, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("revalidation of an over-cap grid: got %d, want 400", rec.Code)
	}
}
