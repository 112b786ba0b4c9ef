package loadgen

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestScheduleByteIdentical pins the determinism contract: the same
// (scenario, seed) pair always emits a byte-identical request schedule
// (and therefore digest), and a different seed diverges.
func TestScheduleByteIdentical(t *testing.T) {
	for _, name := range BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			var a, b bytes.Buffer
			sc1, _ := Builtin(name)
			da, err := sc1.WriteSchedule(&a, 7)
			if err != nil {
				t.Fatal(err)
			}
			sc2, _ := Builtin(name) // fresh copy: no shared sampler state
			db, err := sc2.WriteSchedule(&b, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("same seed produced different schedules:\n%s\n--- vs ---\n%s", a.String(), b.String())
			}
			if da != db {
				t.Fatalf("digest mismatch for identical bytes: %s vs %s", da, db)
			}
			if d3 := sc1.ScheduleDigest(8); d3 == da {
				t.Fatalf("seed 7 and seed 8 share digest %s", da)
			}
			if got := sc1.ScheduleDigest(7); got != da {
				t.Fatalf("ScheduleDigest(7)=%s, WriteSchedule said %s", got, da)
			}
		})
	}
}

// TestPlanReportByteIdentical pins the satellite requirement directly:
// same -seed → byte-identical plan report JSON.
func TestPlanReportByteIdentical(t *testing.T) {
	render := func() []byte {
		sc, ok := Builtin("smoke")
		if !ok {
			t.Fatal("missing built-in smoke")
		}
		var buf bytes.Buffer
		if err := Plan(sc, 99).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("plan reports differ:\n%s\n--- vs ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"schedule_digest"`)) || !bytes.Contains(a, []byte(`"plan": true`)) {
		t.Fatalf("plan report missing digest or plan marker:\n%s", a)
	}
}

// TestScheduleShape spot-checks the dump grammar: header line, one
// tab-separated record per request, and a truncation note ending each
// duration-bounded phase.
func TestScheduleShape(t *testing.T) {
	sc, _ := Builtin("smoke")
	var buf bytes.Buffer
	if _, err := sc.WriteSchedule(&buf, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "# seda-loadgen schedule v2 scenario=smoke seed=3") {
		t.Fatalf("bad header: %q", lines[0])
	}
	perPhase := map[string]int{}
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		f := strings.Split(ln, "\t")
		if len(f) != 5 || f[1] != "GET" {
			t.Fatalf("want 5 fields (phase GET path accept reval), got %q", ln)
		}
		if !strings.HasPrefix(f[2], "/v1/") {
			t.Fatalf("path %q not under /v1/", f[2])
		}
		perPhase[f[0]]++
	}
	if perPhase["warm"] != 24 || perPhase["steady"] != 160 || perPhase["sustain"] != planCap {
		t.Fatalf("records per phase: %v", perPhase)
	}
	if last := lines[len(lines)-1]; last != "# phase sustain: unbounded stream truncated at 512 planned requests" {
		t.Fatalf("last line %q", last)
	}
}

// TestScheduleDigestGolden pins the request sequences of the two
// built-ins CI replays. Each position's phase, path, Accept and
// revalidation flag match the schema-1 dumps (which also carried an
// arrival column); a change here changes the traffic every report
// measured.
func TestScheduleDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		seed   uint64
		digest string
	}{
		{"smoke", 7, "9dbd3867bd2168cdaf1ab929ffc5b072ab615de4e5eafb06e0d37a124b261b0c"},
		{"chaos", 1, "44e9cab7d02781ceade8911d0c521554c7f3e12b5ff38c3d6060e0edcfcc10b8"},
	} {
		sc, _ := Builtin(c.name)
		if got := sc.ScheduleDigest(c.seed); got != c.digest {
			t.Errorf("%s seed %d: schedule digest %s, want %s", c.name, c.seed, got, c.digest)
		}
	}
}

// TestGoldenScenarioParse parses the checked-in scenario file and pins
// the decoded shape (the file documents the grammar; drifting it or
// the parser shows up here).
func TestGoldenScenarioParse(t *testing.T) {
	f, err := os.Open("testdata/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := ParseScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "mixed" || sc.Seed != 42 || len(sc.Phases) != 2 {
		t.Fatalf("decoded header: %+v", sc)
	}
	warm, mixed := sc.Phases[0], sc.Phases[1]
	if warm.Clients != 2 || warm.Requests != 16 {
		t.Fatalf("warm phase: %+v", warm)
	}
	if mixed.Clients != 4 || time.Duration(mixed.Duration) != 2*time.Second || len(mixed.Mix) != 3 {
		t.Fatalf("mixed phase: %+v", mixed)
	}
	if m := mixed.Mix[0]; m.Zipf != 1.1 || m.CSV != 0.25 || m.Revalidate != 0.5 || m.Weight != 6 {
		t.Fatalf("sweep mix: %+v", m)
	}
	if got := mixed.Mix[2].Weight; got != 1 {
		t.Fatalf("catalog default weight = %v, want 1", got)
	}
	// The file must also produce a stable schedule under its own seed.
	if d := sc.ScheduleDigest(sc.Seed); d != sc.ScheduleDigest(sc.Seed) {
		t.Fatal("golden scenario digest unstable")
	}
}

// TestScenarioErrors pins the validator's error messages: scenario
// authors debug through these strings, so they are part of the surface.
func TestScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"name":"x","phases":[{"name":"p","requests":1,"mixx":[]}]}`,
			`unknown field "mixx"`},
		// Open-loop phases of report schema 1 are rejected, never run
		// as closed loops: mode, rate and arrival are unknown fields.
		{"bad mode", `{"name":"x","phases":[{"name":"p","mode":"bursty","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`unknown field "mode"`},
		{"closed with rate", `{"name":"x","phases":[{"name":"p","rate":5,"requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`unknown field "rate"`},
		{"open without rate", `{"name":"x","phases":[{"name":"p","mode":"open","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`unknown field "mode"`},
		{"rate above clock resolution", `{"name":"x","phases":[{"name":"p","mode":"open","rate":1e10,"arrival":"uniform","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`unknown field "mode"`},
		{"open with clients", `{"name":"x","phases":[{"name":"p","mode":"open","rate":5,"clients":3,"duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`unknown field "mode"`},
		{"bad arrival", `{"name":"x","phases":[{"name":"p","arrival":"bursty","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`unknown field "arrival"`},
		{"unbounded", `{"name":"x","phases":[{"name":"p","mix":[{"kind":"catalog"}]}]}`,
			`needs requests or duration to bound it`},
		{"bad fig", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"sweep","figs":["9z"]}]}]}`,
			`mix entry 0 (sweep): unknown fig "9z" (want 5a, 5b, 6a or 6b)`},
		{"bad workload", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"workloads":["nope"]}]}]}`,
			`unknown workload "nope"`},
		{"bad zipf", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"zipf":11}]}]}`,
			`zipf exponent 11 outside [0, 10)`},
		{"bad fraction", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"csv":1.5}]}]}`,
			`csv fraction 1.5 outside [0, 1]`},
		{"bad spec", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"explore","specs":["rows="]}]}]}`,
			`spec "rows="`},
		{"explore with workloads", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"explore","specs":["rows=16"],"workloads":["let"]}]}]}`,
			`figs/workloads/zipf/csv/revalidate are sweep knobs`},
		{"bad kind", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"mystery"}]}]}`,
			`unknown kind "mystery" (want sweep, explore or catalog)`},
		{"duplicate phase", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"catalog"}]},{"name":"p","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`phase "p": duplicate phase name`},
		{"bad duration", `{"name":"x","phases":[{"name":"p","duration":"fast","mix":[{"kind":"catalog"}]}]}`,
			`invalid duration`},
		{"no phases", `{"name":"x","phases":[]}`, `no phases`},
		{"no name", `{"phases":[{"name":"p","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`missing name`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("accepted invalid scenario: %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestLoadScenario(t *testing.T) {
	if sc, err := LoadScenario("smoke"); err != nil || sc.Name != "smoke" {
		t.Fatalf("built-in smoke: %v %+v", err, sc)
	}
	if sc, err := LoadScenario("testdata/mixed.json"); err != nil || sc.Name != "mixed" {
		t.Fatalf("file scenario: %v %+v", err, sc)
	}
	_, err := LoadScenario("no-such-scenario")
	if err == nil || !strings.Contains(err.Error(), "built-ins: chaos, smoke") {
		t.Fatalf("missing-scenario error should list built-ins, got %v", err)
	}
}
