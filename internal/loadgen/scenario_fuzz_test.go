package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzParseScenario checks the scenario parser, which reads -scenario
// files. No document panics it, and every scenario it accepts
// re-marshals to a document that parses again to the same value: the
// validated, defaulted form is a fixed point.
func FuzzParseScenario(f *testing.F) {
	if b, err := os.ReadFile("testdata/capacity_probe.json"); err == nil {
		f.Add(string(b))
	}
	for _, seed := range []string{
		`{"name":"x","phases":[{"name":"p","mode":"open","rate":1e10,"arrival":"uniform","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
		`{"name":"x","phases":[{"name":"p","mode":"open","rate":1e9,"duration":"1ms","mix":[{"kind":"catalog","weight":-0}]}]}`,
		`{"name":"NaN*error(x)","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"workloads":["let, ncf",""]}]}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := ParseScenario(strings.NewReader(doc))
		if err != nil {
			return
		}
		first, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := ParseScenario(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-marshalled scenario rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-parse changed the scenario:\n first %s\nsecond %s", first, second)
		}
	})
}
