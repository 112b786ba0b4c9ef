package loadgen

import (
	"bytes"
	"os"
	"strconv"
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
		sc, ok := Builtin("hot-mix")
		if !ok {
			t.Fatal("missing built-in hot-mix")
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
// tab-separated record per request, open-loop arrivals monotonic.
func TestScheduleShape(t *testing.T) {
	sc, _ := Builtin("capacity")
	var buf bytes.Buffer
	if _, err := sc.WriteSchedule(&buf, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "# seda-loadgen schedule v1 scenario=capacity seed=3") {
		t.Fatalf("bad header: %q", lines[0])
	}
	lastAt := int64(-1)
	var closed, open int
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		f := strings.Split(ln, "\t")
		if len(f) != 6 {
			t.Fatalf("want 6 fields, got %d: %q", len(f), ln)
		}
		if !strings.HasPrefix(f[3], "/v1/") {
			t.Fatalf("path %q not under /v1/", f[3])
		}
		if f[1] == "-" {
			closed++
			continue
		}
		open++
		at, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("arrival %q: %v", f[1], err)
		}
		if at < lastAt {
			t.Fatalf("arrivals not monotonic: %d after %d", at, lastAt)
		}
		lastAt = at
	}
	if closed == 0 || open == 0 {
		t.Fatalf("want both closed (%d) and open (%d) records", closed, open)
	}
}

// TestGoldenScenarioParse parses the checked-in scenario file and pins
// the decoded shape (the file documents the grammar; drifting it or
// the parser shows up here).
func TestGoldenScenarioParse(t *testing.T) {
	f, err := os.Open("testdata/capacity_probe.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := ParseScenario(f)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "capacity-probe" || sc.Seed != 42 || len(sc.Phases) != 2 {
		t.Fatalf("decoded header: %+v", sc)
	}
	warm, offered := sc.Phases[0], sc.Phases[1]
	if warm.Mode != "closed" || warm.Clients != 2 || warm.Requests != 16 {
		t.Fatalf("warm phase: %+v", warm)
	}
	if offered.Mode != "open" || offered.Rate != 40 || offered.Arrival != "uniform" ||
		time.Duration(offered.Duration) != 2*time.Second || len(offered.Mix) != 3 {
		t.Fatalf("offered phase: %+v", offered)
	}
	if m := offered.Mix[0]; m.Zipf != 1.1 || m.CSV != 0.25 || m.Revalidate != 0.5 || m.Weight != 6 {
		t.Fatalf("sweep mix: %+v", m)
	}
	if got := sc.Phases[1].Mix[2].Weight; got != 1 {
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
		{"unknown field", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mixx":[]}]}`,
			`unknown field "mixx"`},
		{"missing mode", `{"name":"x","phases":[{"name":"p","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`phase "p": missing mode (closed or open)`},
		{"bad mode", `{"name":"x","phases":[{"name":"p","mode":"bursty","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`phase "p": mode "bursty" (want closed or open)`},
		{"closed with rate", `{"name":"x","phases":[{"name":"p","mode":"closed","rate":5,"requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`rate is an open-loop knob`},
		{"open without rate", `{"name":"x","phases":[{"name":"p","mode":"open","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`open loop needs rate > 0`},
		{"rate above clock resolution", `{"name":"x","phases":[{"name":"p","mode":"open","rate":1e10,"arrival":"uniform","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`rate 1e+10/s puts the mean arrival gap below the 1ns schedule clock`},
		{"open with clients", `{"name":"x","phases":[{"name":"p","mode":"open","rate":5,"clients":3,"duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`clients is a closed-loop knob`},
		{"bad arrival", `{"name":"x","phases":[{"name":"p","mode":"open","rate":5,"arrival":"bursty","duration":"1s","mix":[{"kind":"catalog"}]}]}`,
			`arrival "bursty" (want poisson or uniform)`},
		{"unbounded", `{"name":"x","phases":[{"name":"p","mode":"closed","mix":[{"kind":"catalog"}]}]}`,
			`needs requests or duration to bound it`},
		{"bad fig", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"sweep","figs":["9z"]}]}]}`,
			`mix entry 0 (sweep): unknown fig "9z" (want 5a, 5b, 6a or 6b)`},
		{"bad workload", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"workloads":["nope"]}]}]}`,
			`unknown workload "nope"`},
		{"bad zipf", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"zipf":11}]}]}`,
			`zipf exponent 11 outside [0, 10)`},
		{"bad fraction", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"sweep","figs":["5b"],"csv":1.5}]}]}`,
			`csv fraction 1.5 outside [0, 1]`},
		{"bad spec", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"explore","specs":["rows="]}]}]}`,
			`spec "rows="`},
		{"explore with workloads", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"explore","specs":["rows=16"],"workloads":["let"]}]}]}`,
			`figs/workloads/zipf/csv/revalidate are sweep knobs`},
		{"bad kind", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"mystery"}]}]}`,
			`unknown kind "mystery" (want sweep, explore or catalog)`},
		{"duplicate phase", `{"name":"x","phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"catalog"}]},{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"catalog"}]}]}`,
			`phase "p": duplicate phase name`},
		{"bad duration", `{"name":"x","phases":[{"name":"p","mode":"closed","duration":"fast","mix":[{"kind":"catalog"}]}]}`,
			`invalid duration`},
		{"no phases", `{"name":"x","phases":[]}`, `no phases`},
		{"no name", `{"phases":[{"name":"p","mode":"closed","requests":1,"mix":[{"kind":"catalog"}]}]}`,
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
	if sc, err := LoadScenario("testdata/capacity_probe.json"); err != nil || sc.Name != "capacity-probe" {
		t.Fatalf("file scenario: %v %+v", err, sc)
	}
	_, err := LoadScenario("no-such-scenario")
	if err == nil || !strings.Contains(err.Error(), "built-ins: capacity, chaos, hot-mix, smoke") {
		t.Fatalf("missing-scenario error should list built-ins, got %v", err)
	}
}

// TestScaleDurations confirms scaling only touches durations (counted
// phases keep their deterministic schedules).
func TestScaleDurations(t *testing.T) {
	sc, _ := Builtin("smoke")
	before := sc.ScheduleDigest(1)
	sc.ScaleDurations(0.25)
	if time.Duration(sc.Phases[2].Duration) != 1250*time.Millisecond {
		t.Fatalf("sustain duration = %s", time.Duration(sc.Phases[2].Duration))
	}
	if sc.Phases[0].Requests != 24 {
		t.Fatal("scaling changed a request count")
	}
	// Counted phases dominate the digest prefix; the truncated
	// unbounded phase is unchanged too (same seed, same draws).
	if after := sc.ScheduleDigest(1); after != before {
		t.Fatalf("scaling durations changed the schedule digest: %s -> %s", before, after)
	}
}
