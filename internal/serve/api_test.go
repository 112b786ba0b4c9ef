package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/seda"
)

// testHandler builds a server with a fresh in-memory cache. Requests
// in tests restrict workloads to the millisecond-scale ones so the
// whole file runs comfortably under `go test -race -short`.
func testHandler(t *testing.T) (http.Handler, *rescache.Cache) {
	t.Helper()
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewAPI(cache, 0).Handler(), cache
}

func doReq(t *testing.T, h http.Handler, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	var out struct {
		Status   string `json:"status"`
		Pipeline string `json:"pipeline"`
		Go       string `json:"go"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, rec.Body.String())
	}
	if out.Status != "ok" || out.Pipeline != seda.PipelineVersion || out.Go == "" {
		t.Fatalf("healthz build info: %+v", out)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/v1/workloads", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out []struct {
		Name   string `json:"name"`
		Full   string `json:"full"`
		Layers int    `json:"layers"`
		MACs   uint64 `json:"macs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 13 || out[0].Name != "let" || out[0].Layers == 0 || out[0].MACs == 0 {
		t.Fatalf("workloads = %+v", out)
	}
}

func TestSchemesEndpoint(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/v1/schemes", nil)
	var out []struct {
		Name     string `json:"name"`
		Baseline bool   `json:"baseline"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(seda.Schemes()) {
		t.Fatalf("schemes = %d, want %d", len(out), len(seda.Schemes()))
	}
	if !out[len(out)-1].Baseline {
		t.Fatal("last scheme should be the baseline")
	}
}

// All four figures answer in both JSON and CSV — the acceptance
// criterion of the serving layer.
func TestSweepAllFigsBothFormats(t *testing.T) {
	h, _ := testHandler(t)
	for _, fig := range []string{"5a", "5b", "6a", "6b"} {
		url := "/v1/sweep?fig=" + fig + "&workloads=let,ncf"

		rec := doReq(t, h, url, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("fig %s json: status %d: %s", fig, rec.Code, rec.Body.String())
		}
		var doc struct {
			NPU     string   `json:"npu"`
			Fig     string   `json:"fig"`
			Metric  string   `json:"metric"`
			Schemes []string `json:"schemes"`
			Rows    []struct {
				Workload string    `json:"workload"`
				Values   []float64 `json:"values"`
			} `json:"rows"`
			Avg []float64 `json:"avg"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		wantNPU := map[byte]string{'a': "server", 'b': "edge"}[fig[1]]
		wantMetric := map[byte]string{'5': "traffic", '6': "perf"}[fig[0]]
		if doc.NPU != wantNPU || doc.Metric != wantMetric || doc.Fig != fig {
			t.Fatalf("fig %s: header %+v", fig, doc)
		}
		if len(doc.Rows) != 2 || len(doc.Rows[0].Values) != len(seda.Schemes()) || len(doc.Avg) != len(seda.Schemes()) {
			t.Fatalf("fig %s: malformed rows %+v", fig, doc)
		}

		rec = doReq(t, h, url, map[string]string{"Accept": "text/csv"})
		if rec.Code != http.StatusOK {
			t.Fatalf("fig %s csv: status %d", fig, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Fatalf("fig %s csv: content-type %q", fig, ct)
		}
		recs, err := csv.NewReader(bytes.NewReader(rec.Body.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("fig %s: body not CSV: %v", fig, err)
		}
		if len(recs) != 4 || recs[0][0] != "workload" || recs[3][0] != "avg" {
			t.Fatalf("fig %s: csv shape %v", fig, recs)
		}
	}
}

func TestSweepFullSuiteJSON(t *testing.T) {
	h, _ := testHandler(t)
	rec := doReq(t, h, "/v1/sweep?npu=edge&workloads=let", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		NPU       string   `json:"npu"`
		Workloads []string `json:"workloads"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.NPU != "edge" || len(doc.Workloads) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
}

func TestSweepBadParams(t *testing.T) {
	h, _ := testHandler(t)
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/v1/sweep", "missing npu"},
		{"/v1/sweep?fig=7c", "unknown fig"},
		{"/v1/sweep?npu=tpu9", "unknown npu"},
		{"/v1/sweep?fig=5a&npu=edge", "fig 5a is the server NPU"},
		{"/v1/sweep?fig=5b&workloads=nope", "unknown workload"},
		{"/v1/sweep?fig=5b&workloads=let&format=xml", "unknown format"},
		{"/v1/sweep?npu=edge&workloads=let&format=csv", "needs a fig"},
	} {
		rec := doReq(t, h, tc.url, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.url, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: body %q, want %q", tc.url, rec.Body.String(), tc.want)
		}
	}
	// Unknown-workload errors must list the valid names.
	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=nope", nil)
	if !strings.Contains(rec.Body.String(), "let") || !strings.Contains(rec.Body.String(), "yolo") {
		t.Errorf("workload error does not list known names: %q", rec.Body.String())
	}
}

func TestSweepMethodNotAllowed(t *testing.T) {
	h, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep?fig=5b", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

// A cached response must be byte-identical to the fresh one, for every
// format.
func TestSweepCachedResponseByteIdentical(t *testing.T) {
	h, cache := testHandler(t)
	for _, url := range []string{
		"/v1/sweep?fig=5b&workloads=let,ncf",
		"/v1/sweep?fig=6b&workloads=let,ncf&format=csv",
		"/v1/sweep?npu=edge&workloads=let,ncf",
	} {
		fresh := doReq(t, h, url, nil)
		cached := doReq(t, h, url, nil)
		if fresh.Code != http.StatusOK || cached.Code != http.StatusOK {
			t.Fatalf("%s: status %d/%d", url, fresh.Code, cached.Code)
		}
		if !bytes.Equal(fresh.Body.Bytes(), cached.Body.Bytes()) {
			t.Fatalf("%s: cached response differs from fresh", url)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("repeat requests never hit the cache: %+v", st)
	}
}

// N identical concurrent sweep requests perform exactly one pipeline
// evaluation per workload and return identical bodies, and a
// concurrent warm rerun after them performs none. Runs under
// `go test -race -short`.
func TestSweepConcurrentSingleflight(t *testing.T) {
	h, cache := testHandler(t)
	const clients = 8
	url := "/v1/sweep?fig=5b&workloads=let"

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doReq(t, h, url, nil)
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()

	for i, b := range bodies {
		if b == nil {
			t.Fatalf("client %d failed", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("client %d body differs", i)
		}
	}
	if st := cache.Stats(); st.Computes != 1 {
		t.Fatalf("%d identical concurrent requests ran %d evaluations, want 1 (stats %+v)",
			clients, st.Computes, st)
	}

	// A concurrent warm rerun mixing JSON, format=csv and If-None-Match
	// runs no fresh compute: every revalidation answers 304, every 200
	// body is byte-identical to the URL's first, and the rerun is served
	// from the cache.
	t.Run("warm_rerun", func(t *testing.T) {
		csvURL := url + "&format=csv"
		jsonRef, csvRef := doReq(t, h, url, nil), doReq(t, h, csvURL, nil)
		if jsonRef.Code != http.StatusOK || csvRef.Code != http.StatusOK || !bytes.Equal(jsonRef.Body.Bytes(), bodies[0]) ||
			jsonRef.Header().Get("ETag") == "" || csvRef.Header().Get("ETag") == "" {
			t.Fatalf("warm references: json %d %v, csv %d %v", jsonRef.Code, jsonRef.Header(), csvRef.Code, csvRef.Header())
		}
		type warmReq struct {
			url  string
			inm  string // If-None-Match; a 304 is then the only right answer
			body []byte
		}
		mix := []warmReq{
			{url: url, body: bodies[0]},
			{url: csvURL, body: csvRef.Body.Bytes()},
			{url: url, inm: jsonRef.Header().Get("ETag")},
			{url: csvURL, inm: csvRef.Header().Get("ETag")},
		}
		before := cache.Stats()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 3*len(mix); j++ {
					m := mix[(i+j)%len(mix)]
					rec := doReq(t, h, m.url, map[string]string{"If-None-Match": m.inm})
					switch {
					case m.inm != "" && rec.Code != http.StatusNotModified:
						t.Errorf("revalidating %s: status %d, want 304", m.url, rec.Code)
					case m.inm == "" && (rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), m.body)):
						t.Errorf("warm %s: status %d, body identical to the first: %v",
							m.url, rec.Code, bytes.Equal(rec.Body.Bytes(), m.body))
					}
				}
			}(i)
		}
		wg.Wait()
		st := cache.Stats()
		if st.Computes != 1 {
			t.Fatalf("warm rerun ran fresh computes: %d evaluations in all, want 1 (stats %+v)", st.Computes, st)
		}
		if st.Hits <= before.Hits {
			t.Fatalf("warm rerun shows no cache hits: before %+v, after %+v", before, st)
		}
	})
}

// scrapeMetrics fetches /metrics and runs the body through the strict
// exposition parser, so every test that touches the endpoint also
// proves the output is well-formed — a substring match can't tell a
// dangling HELP line from a real series. Naming rules need no check
// here: the Registry panics on a bad name at registration.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]*obs.PromFamily {
	t.Helper()
	rec := doReq(t, h, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	fams, err := obs.ParseProm(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("metrics body does not parse: %v\n%s", err, rec.Body.String())
	}
	return fams
}

// metricValue asserts the family exists and returns its unlabeled
// sample's value.
func metricValue(t *testing.T, fams map[string]*obs.PromFamily, name string) float64 {
	t.Helper()
	fam, ok := fams[name]
	if !ok {
		t.Fatalf("metrics missing family %s", name)
	}
	v, err := fam.Value(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	h, _ := testHandler(t)
	doReq(t, h, "/v1/sweep?fig=5b&workloads=let", nil) // miss
	doReq(t, h, "/v1/sweep?fig=5b&workloads=let", nil) // hit
	fams := scrapeMetrics(t, h)
	for name, want := range map[string]float64{
		"seda_http_requests_total": 3,
		"seda_cache_misses_total":  1,
		"seda_cache_hits_total":    1,
		"seda_cache_entries":       1,
		"seda_cache_inflight":      0,
		"seda_cache_shed_total":    0,
		"seda_panics_total":        0,
		"seda_cache_errors_total":  0,
	} {
		if got := metricValue(t, fams, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Build identity rides along as a constant-1 gauge whose labels
	// carry the information.
	bi, ok := fams["seda_build_info"]
	if !ok {
		t.Fatal("metrics missing seda_build_info")
	}
	if len(bi.Samples) != 1 {
		t.Fatalf("seda_build_info: want 1 sample, got %+v", bi.Samples)
	}
	if s := bi.Samples[0]; s.Value != 1 || s.Labels["pipeline"] != seda.PipelineVersion ||
		s.Labels["go_version"] == "" || s.Labels["revision"] == "" {
		t.Fatalf("seda_build_info: %+v", bi.Samples[0])
	}

	// The two sweeps and the scrape itself land in the request
	// histogram under their route patterns; the cold sweep also runs
	// pipeline stages and a cache compute.
	reqs, ok := fams["seda_request_duration_seconds"]
	if !ok {
		t.Fatal("metrics missing seda_request_duration_seconds")
	}
	if n, err := reqs.HistCount(map[string]string{"route": "/v1/sweep"}); err != nil || n != 2 {
		t.Fatalf("request histogram route=/v1/sweep count %v err %v, want 2", n, err)
	}
	stages, ok := fams["seda_stage_duration_seconds"]
	if !ok {
		t.Fatal("metrics missing seda_stage_duration_seconds")
	}
	for _, stage := range []string{obs.StageSuite, obs.StageWorkload, obs.StageScalesim, obs.StageProtect, obs.StageDRAM, obs.StageCompute} {
		if n, err := stages.HistCount(map[string]string{"stage": stage}); err != nil || n == 0 {
			t.Errorf("stage histogram %s count %v err %v, want > 0", stage, n, err)
		}
	}
	comp, ok := fams["seda_compute_duration_seconds"]
	if !ok {
		t.Fatal("metrics missing seda_compute_duration_seconds")
	}
	if n, err := comp.HistCount(nil); err != nil || n != 1 {
		t.Fatalf("compute histogram count %v err %v, want 1", n, err)
	}
}

// The Accept header is parsed per media-type, not by substring on the
// whole header.
func TestWantCSVNegotiation(t *testing.T) {
	mk := func(accept, format string) *http.Request {
		url := "/v1/sweep"
		if format != "" {
			url += "?format=" + format
		}
		req := httptest.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		return req
	}
	for _, tc := range []struct {
		accept, format string
		want           bool
	}{
		{"", "", false},
		{"application/json", "", false},
		{"text/csv", "", true},
		{"text/*", "", true},                            // csv matches text/*, json gets q=0
		{"application/json, text/csv;q=0.9", "", false}, // json preferred by q
		{"application/json;q=0.5, text/csv", "", true},  // csv preferred by q
		{"text/csv;q=0", "", false},                     // explicitly refused
		{"text/csv, */*", "", false},                    // tie: JSON wins
		{"text/csv", "json", false},                     // explicit format wins
		{"application/json", "csv", true},
		// A malformed weight drops its range instead of ranking it
		// outside [0, 1].
		{"text/csv;q=2, application/json", "", false},
		{"text/csv;q=Inf, application/json", "", false},
		{"application/json;q=NaN, text/csv;q=0.1", "", true},
	} {
		got, err := wantCSV(mk(tc.accept, tc.format))
		if err != nil || got != tc.want {
			t.Errorf("accept=%q format=%q: got %v err %v, want %v", tc.accept, tc.format, got, err, tc.want)
		}
	}
}

// TestAcceptQuality: weights follow the RFC 9110 qvalue grammar (at
// most three decimals, never above 1, "q" in either case), and a range
// with a malformed weight is ignored.
func TestAcceptQuality(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   float64
	}{
		{"text/csv;q=0.123", 0.123},
		{"text/csv; Q=0.5", 0.5},
		{"text/csv;q=1.000", 1},
		{"text/csv;q=1.", 1},
		{"text/csv;q=0", 0},
		{"text/csv;q=1.001", 0},
		{"text/csv;q=0.1234", 0},
		{"text/csv;q=.5", 0},
		{"text/csv;q=-0", 0},
		{"text/csv;q=1e0", 0},
		{"text/csv;q=", 0},
		{"text/csv;q=2", 0},
		{"text/csv;q=Inf", 0},
		{"text/csv;q=NaN, text/*;q=0.3", 0.3},
		{"text/csv;level=1", 1},
	} {
		if got := acceptQuality(tc.header, "text/csv"); got != tc.want {
			t.Errorf("acceptQuality(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// FuzzAcceptQuality: any Accept header yields a weight in [0, 1].
func FuzzAcceptQuality(f *testing.F) {
	for _, seed := range []string{
		"", "text/csv", "application/json;q=0.5, text/csv", "text/*;q=0.9, */*;q=0.1",
		"text/csv;q=2, application/json", "application/json;q=NaN, text/csv;q=0.1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		for _, mt := range []string{"text/csv", "application/json"} {
			if q := acceptQuality(header, mt); !(q >= 0 && q <= 1) {
				t.Fatalf("acceptQuality(%q, %q) = %v, outside [0, 1]", header, mt, q)
			}
		}
	})
}

// Exercise the real binary wiring end to end: bind :0, hit /healthz
// through a TCP socket. Keeps the CI smoke step honest.
func TestServerOverTCP(t *testing.T) {
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(cache, 0).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz over TCP: %d %q", resp.StatusCode, body)
	}
}

// TestSweepETagRevalidation pins the conditional-request contract:
// sweep responses carry a strong ETag and Cache-Control, a matching
// If-None-Match revalidates with 304 without touching the cache or the
// pipeline (even for a config that was never evaluated), and the tag
// varies with the representation (figure, format).
func TestSweepETagRevalidation(t *testing.T) {
	h, cache := testHandler(t)
	url := "/v1/sweep?fig=5b&workloads=ncf"

	fresh := doReq(t, h, url, nil)
	if fresh.Code != http.StatusOK {
		t.Fatalf("status %d", fresh.Code)
	}
	etag := fresh.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or weak ETag %q", etag)
	}
	if cc := fresh.Header().Get("Cache-Control"); !strings.Contains(cc, "no-cache") {
		t.Fatalf("Cache-Control %q, want a revalidation directive", cc)
	}

	before := cache.Stats()
	rec := doReq(t, h, url, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d body %dB, want 304 with empty body", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("ETag") != etag {
		t.Fatalf("304 ETag %q != %q", rec.Header().Get("ETag"), etag)
	}
	after := cache.Stats()
	if after.Hits != before.Hits || after.Computes != before.Computes || after.DiskHits != before.DiskHits {
		t.Fatalf("304 touched the cache: before %+v after %+v", before, after)
	}

	// A stale tag gets the full body again.
	if rec := doReq(t, h, url, map[string]string{"If-None-Match": `"deadbeef"`}); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("stale tag: status %d body %dB", rec.Code, rec.Body.Len())
	}
	// Wildcard matches without a tag.
	if rec := doReq(t, h, url, map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusNotModified {
		t.Fatalf("wildcard: status %d, want 304", rec.Code)
	}

	// 304 without ever evaluating: a fresh server has computed nothing,
	// yet can revalidate a tag it can derive from fingerprints alone.
	h2, cache2 := testHandler(t)
	rec = doReq(t, h2, url, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("cold revalidation: status %d, want 304", rec.Code)
	}
	if st := cache2.Stats(); st.Computes != 0 {
		t.Fatalf("cold revalidation evaluated the pipeline: %+v", st)
	}

	// Distinct representations carry distinct tags.
	tags := map[string]string{}
	for _, u := range []string{
		"/v1/sweep?fig=5b&workloads=ncf",
		"/v1/sweep?fig=6b&workloads=ncf",
		"/v1/sweep?fig=6b&workloads=ncf&format=csv",
		"/v1/sweep?npu=edge&workloads=ncf",
	} {
		tag := doReq(t, h, u, nil).Header().Get("ETag")
		if tag == "" {
			t.Fatalf("%s: no ETag", u)
		}
		if prev, dup := tags[tag]; dup {
			t.Fatalf("ETag collision between %s and %s", prev, u)
		}
		tags[tag] = u
	}
}

// TestSweepShedsWhenSaturated pins the 503 path deterministically: the
// server's single bounded compute slot is held open by a direct cache
// computation, so a sweep that needs a fresh evaluation is shed with
// 503 and Retry-After, succeeds on retry once the slot frees, and the
// cache counts the shed.
func TestSweepShedsWhenSaturated(t *testing.T) {
	cache, err := rescache.New(rescache.Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewAPI(cache, 0).Handler()

	held := make(chan struct{})
	begun := make(chan struct{})
	occupier := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrCompute("00ff", func() ([]byte, error) {
			close(begun)
			<-held
			return []byte("x"), nil
		})
		occupier <- err
	}()
	<-begun // the one compute slot is now deterministically held

	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated sweep: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if st := cache.Stats(); st.Shed != 1 {
		t.Fatalf("stats %+v, want Shed=1", st)
	}

	close(held)
	if err := <-occupier; err != nil {
		t.Fatal(err)
	}
	// With the slot free again, the shed sweep succeeds on retry.
	if rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=ncf", nil); rec.Code != http.StatusOK {
		t.Fatalf("retry after shed: status %d", rec.Code)
	}
}

// TestColdSweepDoesNotSelfShed is the regression guard for the
// capacity bound's one sharp edge: a sweep fans its workloads over a
// worker pool, and if the pool outnumbered the compute slots a single
// cold sweep on an idle server would shed its own workloads and 503.
// seda.RunSuiteCachedCtx sizes the pool to the slot count, so the
// smallest possible capacity must still serve a multi-workload cold
// sweep, however many Ps the runtime has.
func TestColdSweepDoesNotSelfShed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // deliberately above the single compute slot
	cache, err := rescache.New(rescache.Options{MaxInflightComputes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewAPI(cache, 0).Handler()

	rec := doReq(t, h, "/v1/sweep?fig=5b&workloads=let,ncf", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold sweep on an idle server: status %d body %q", rec.Code, rec.Body.String())
	}
	if st := cache.Stats(); st.Shed != 0 || st.Computes != 2 {
		t.Fatalf("stats %+v, want Shed=0 Computes=2", st)
	}
}
