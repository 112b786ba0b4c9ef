package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestRepeatedWorkloadsCollapse: a repeated name denotes the same
// result as one occurrence — same body, same ETag, same affinity key —
// so the router cannot split identical results across replicas.
func TestRepeatedWorkloadsCollapse(t *testing.T) {
	h, _ := testHandler(t)
	one := doReq(t, h, "/v1/sweep?fig=5b&workloads=let", nil)
	two := doReq(t, h, "/v1/sweep?fig=5b&workloads=let,LET,%20let", nil)
	if one.Code != http.StatusOK || two.Code != http.StatusOK {
		t.Fatalf("status %d / %d", one.Code, two.Code)
	}
	if !bytes.Equal(one.Body.Bytes(), two.Body.Bytes()) {
		t.Fatalf("bodies differ:\n%s\n---\n%s", one.Body.String(), two.Body.String())
	}
	if a, b := one.Header().Get("ETag"), two.Header().Get("ETag"); a == "" || a != b {
		t.Fatalf("ETags %q vs %q", a, b)
	}
	key := func(workloads string) string {
		npu, nets, err := ResolveSweep("5b", "", workloads)
		if err != nil {
			t.Fatal(err)
		}
		return SweepAffinityKey(npu, nets)
	}
	if a, b := key("let"), key("let,let"); a != b {
		t.Fatalf("affinity keys %q vs %q", a, b)
	}
	nets, err := model.ParseList("ncf,let,ncf,let")
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 2 || nets[0].Name != "ncf" || nets[1].Name != "let" {
		t.Fatalf("first-occurrence order lost: %v", nets)
	}
}

// FuzzResolveSweep runs the /v1/sweep parameter resolution both the
// router and the replica apply to network input: it never panics, a
// resolved workload set has no duplicates, and the canonical form
// (NPU name, workload names joined by commas) resolves to the same
// networks and the same affinity key.
func FuzzResolveSweep(f *testing.F) {
	for _, seed := range [][3]string{
		{"5b", "", "let,ncf"},
		{"", "server", ""},
		{"6a", "SERVER", "let,let,LET"},
		{"5a", "edge", "let"},
		{"", "", "let"},
		{"7z", "", ""},
		{"", "edge", "let,,ncf"},
		{"", "edge", " rest , goo "},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, fig, npuName, workloads string) {
		npu, nets, err := ResolveSweep(fig, npuName, workloads)
		if err != nil {
			return
		}
		names := make([]string, len(nets))
		seen := make(map[string]bool)
		for i, n := range nets {
			if seen[n.Name] {
				t.Fatalf("(%q, %q, %q): workload %s appears twice", fig, npuName, workloads, n.Name)
			}
			seen[n.Name] = true
			names[i] = n.Name
		}
		canon := strings.Join(names, ",")
		npu2, nets2, err := ResolveSweep("", npu.Name, canon)
		if err != nil {
			t.Fatalf("canonical form (%q, %q) does not resolve: %v", npu.Name, canon, err)
		}
		if npu2.Name != npu.Name || len(nets2) != len(nets) {
			t.Fatalf("canonical form resolves to %s/%d networks, want %s/%d", npu2.Name, len(nets2), npu.Name, len(nets))
		}
		for i := range nets {
			if nets2[i].Name != nets[i].Name {
				t.Fatalf("canonical form reorders networks: %s at %d, want %s", nets2[i].Name, i, nets[i].Name)
			}
		}
		if a, b := SweepAffinityKey(npu, nets), SweepAffinityKey(npu2, nets2); a != b {
			t.Fatalf("canonical form moves the affinity key: %s vs %s", a, b)
		}
	})
}
