package serve

import (
	"net/http"
	"net/url"
	"testing"

	"repro/internal/explore"
)

// exploreKeyCases pins the validators and routing key of a few
// explorations: the JSON ETag, the CSV ETag and the affinity key were
// recorded once and must not move, or every client's cached
// exploration and every replica's warm confirmations are orphaned.
// Rows that denote the same exploration (axis order, repeated or
// case-varied workloads, explicit defaults) carry the same keys.
var exploreKeyCases = []struct {
	query          string
	json, csv, key string
}{
	{"spec=rows%3D32&workloads=let",
		`"b8c0480471e26a9aabb39ed1e91c5536"`, `"57073b4429a56ebdf29572ed7df75b90"`, "3dfa2ce0c43d383cbb9cdeac1b91fb17"},
	{"spec=rows%3D32&workloads=let,LET,%20let",
		`"b8c0480471e26a9aabb39ed1e91c5536"`, `"57073b4429a56ebdf29572ed7df75b90"`, "3dfa2ce0c43d383cbb9cdeac1b91fb17"},
	{"spec=rows%3D32&base=Edge&scheme=seda&workloads=let",
		`"b8c0480471e26a9aabb39ed1e91c5536"`, `"57073b4429a56ebdf29572ed7df75b90"`, "3dfa2ce0c43d383cbb9cdeac1b91fb17"},
	{"spec=rows%3D16:32,channels%3D2%7C4&workloads=let",
		`"bbef237e76ba7064c0737d900c0a0345"`, `"9a6ba9abb61701bc38f94b2e2feef4cd"`, "9f6fc9ee0e119f73cfc40c757758ab4c"},
	{"spec=channels%3D2%7C4,rows%3D16:32&workloads=let",
		`"bbef237e76ba7064c0737d900c0a0345"`, `"9a6ba9abb61701bc38f94b2e2feef4cd"`, "9f6fc9ee0e119f73cfc40c757758ab4c"},
	{"spec=rows%3D32&base=server&scheme=MGX-64B&margin=0.2&workloads=ncf,let",
		`"d77d69f2d52cae8338ac65bda9aec97c"`, `"b0213ccffdd97d6fff4b9ef13ec49653"`, "2485d8cf56410353d33410a93656871f"},
	{"spec=rows%3D32&workloads=ncf,let",
		`"dc9a49458253e79603bd38e0677339c7"`, `"ccabdb3d0ae71bf1da4272522fd944f9"`, "249df0cad2350a34666488e65422cfed"},
	{"spec=rows%3D32&workloads=let,ncf,NCF,let",
		`"db680cf121fa6d2ee408af88058253d8"`, `"e0e3ab9e0ba446808154ff0035a67193"`, "e818867db04e05b74acfd6868c8047c0"},
	{"spec=rows%3D32",
		`"cdab69167ae7862abf0fd8b0c642d67c"`, `"ce987ee25874c66bc7bb5ae007b74b6e"`, "43b89f3192844954815d92db0d9a9698"},
}

func exploreAffinityOf(t *testing.T, q url.Values) string {
	t.Helper()
	req, err := explore.ParseRequest(q.Get("spec"), q.Get("base"), q.Get("workloads"), q.Get("scheme"), q.Get("margin"))
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
