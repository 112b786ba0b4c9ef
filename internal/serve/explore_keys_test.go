package serve

import (
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
