package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/explore"
)

// exploreKeyCases pins the validators and routing key of a few
// explorations: the JSON ETag, the CSV ETag and the affinity key were
// recorded at surrogate version 2 and must move only with a deliberate
// change of the body, or every client's cached exploration and every
// replica's warm confirmations are orphaned.
// Rows that denote the same exploration (axis order, repeated or
// case-varied workloads, explicit defaults, an ignored margin
// parameter) carry the same keys.
var exploreKeyCases = []struct {
	query          string
	json, csv, key string
}{
	{"spec=rows%3D32&workloads=let",
		`"d1c3badd1e383a30382dae437d61df23"`, `"9fe238385c624e18285b1795eed3353b"`, "78059d19a01ce2a9b9dcb00d3d172f47"},
	{"spec=rows%3D32&workloads=let,LET,%20let",
		`"d1c3badd1e383a30382dae437d61df23"`, `"9fe238385c624e18285b1795eed3353b"`, "78059d19a01ce2a9b9dcb00d3d172f47"},
	{"spec=rows%3D32&base=Edge&scheme=seda&workloads=let",
		`"d1c3badd1e383a30382dae437d61df23"`, `"9fe238385c624e18285b1795eed3353b"`, "78059d19a01ce2a9b9dcb00d3d172f47"},
	{"spec=rows%3D16:32,channels%3D2%7C4&workloads=let",
		`"62dbebaa1146741b80e612cd4ca78e92"`, `"096d131988ec1079c90f8537de72f540"`, "024734035a7128277b2b94fd485cd036"},
	{"spec=channels%3D2%7C4,rows%3D16:32&workloads=let",
		`"62dbebaa1146741b80e612cd4ca78e92"`, `"096d131988ec1079c90f8537de72f540"`, "024734035a7128277b2b94fd485cd036"},
	{"spec=rows%3D32&base=server&scheme=MGX-64B&margin=0.2&workloads=ncf,let",
		`"620c6ad2e173190717726954930fa83e"`, `"d1e37fe7f373741b78ae5be5d2b5c579"`, "2c906b921bb69d521c009d7128aef649"},
	{"spec=rows%3D32&base=server&scheme=MGX-64B&workloads=ncf,let",
		`"620c6ad2e173190717726954930fa83e"`, `"d1e37fe7f373741b78ae5be5d2b5c579"`, "2c906b921bb69d521c009d7128aef649"},
	{"spec=rows%3D32&workloads=ncf,let",
		`"d94d366b53399d2c37ff915e59b3722e"`, `"f975898668d30102488ade7f052baf22"`, "324eac4b7e7d21abf68d136f2c6209f5"},
	{"spec=rows%3D32&workloads=let,ncf,NCF,let",
		`"38a72545d6f4953b2b39becb68298d1d"`, `"141c4dc0001b02771c0d12604d22f6ec"`, "d31efb6f9ef85dfe5b5ce985661ec397"},
	{"spec=rows%3D32",
		`"adf94e715b5471f84a69c25e63e459a6"`, `"3bb9bb8aa65596ec36e44069093c2d90"`, "490c7ba3f3e0a3f3865e14707eaee0b7"},
}

func exploreAffinityOf(t *testing.T, q url.Values) string {
	t.Helper()
	req, err := explore.ParseRequest(q.Get("spec"), q.Get("base"), q.Get("workloads"), q.Get("scheme"))
	if err != nil {
		t.Fatal(err)
	}
	return ExploreAffinityKey(req)
}

// TestExploreKeysPinned: revalidating with a pinned ETag answers 304
// without evaluating, in both formats, and the router's affinity key
// for the same query is the pinned one.
func TestExploreKeysPinned(t *testing.T) {
	h, _ := testHandler(t)
	for _, tc := range exploreKeyCases {
		for _, v := range []struct{ suffix, etag string }{{"", tc.json}, {"&format=csv", tc.csv}} {
			rec := doReq(t, h, "/v1/explore?"+tc.query+v.suffix, map[string]string{"If-None-Match": v.etag})
			if rec.Code != http.StatusNotModified || rec.Header().Get("ETag") != v.etag {
				t.Errorf("%s%s: got %d ETag %s, want 304 %s", tc.query, v.suffix, rec.Code, rec.Header().Get("ETag"), v.etag)
			}
		}
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := exploreAffinityOf(t, q); got != tc.key {
			t.Errorf("%s: affinity key %s, want %s", tc.query, got, tc.key)
		}
	}
}

// exploreBodyCases pins the SHA-256 of the JSON and CSV bodies of
// exploreKeyCases' distinct explorations. The ETags above hash only the
// request inputs, so these are what catch a moved exec cycle, frontier
// or calibration: every body must stay byte-identical unless the
// surrogate or pipeline version moves with it.
var exploreBodyCases = []struct {
	query     string
	json, csv string
}{
	{"spec=rows%3D32&workloads=let",
		"436aacc915111088602ec77f3c63a639f8d87ae7ebfd8bdbdf1d086209e3fd7f",
		"62088ae59dcf52cce141c8ef3276782839ba33a96ea25c693f14bf079c57030a"},
	{"spec=rows%3D16:32,channels%3D2%7C4&workloads=let",
		"050296074ce70acba1c280929cfd55b68451d9f8eea37d7a8c4131feffbba50b",
		"a7e2c8582a013fd1f1349bd1251df8bb38116e3eee15130b788f06e75a5693eb"},
	{"spec=rows%3D32&base=server&scheme=MGX-64B&workloads=ncf,let",
		"48d4e9738d0aeb23d0a38ff4e869cd000af2b675f58ff5c5287fc60c544750c3",
		"1c0ea902df18a33d79e47ad244c1a45e5a6fe712dd83657c4f0c0f3af2641725"},
	{"spec=rows%3D32&workloads=ncf,let",
		"5f94792035a5e6206c5bc6f63bce8ee51dc9b5852ac45135dc6066a924abe7d1",
		"697d5af03a36fce97dc4b58e77220ccc7504737789dc33048e668cd79a3c739d"},
	{"spec=rows%3D32&workloads=let,ncf,NCF,let",
		"8fb8d2b9b71ff73a2981e79dccaff89d606acd6abfef7383736dfa1cfb099c97",
		"697d5af03a36fce97dc4b58e77220ccc7504737789dc33048e668cd79a3c739d"},
	{"spec=rows%3D32",
		"b7153ccbecc5a2e344782367e2c344da89fc13a98bc3b824cc776921f3e17053",
		"5b12968f438d88450eea73453f34f27fda88e0aba15ef13c26460cbeb0a42b60"},
}

// TestExploreBodiesPinned serves each distinct exploration in both
// formats from one cold cache and compares the bodies' hashes.
func TestExploreBodiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the full suite on edge; skipped under -short")
	}
	h, _ := testHandler(t)
	for _, tc := range exploreBodyCases {
		for _, v := range []struct{ suffix, want string }{{"", tc.json}, {"&format=csv", tc.csv}} {
			rec := doReq(t, h, "/v1/explore?"+tc.query+v.suffix, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s%s: %d %s", tc.query, v.suffix, rec.Code, rec.Body.String())
			}
			sum := sha256.Sum256(rec.Body.Bytes())
			if got := hex.EncodeToString(sum[:]); got != v.want {
				t.Errorf("%s%s: body SHA-256 %s, want %s", tc.query, v.suffix, got, v.want)
			}
		}
	}
}
