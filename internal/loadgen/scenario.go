// Package loadgen is the synthetic traffic harness for the serving
// stack: it replays declarative closed-loop scenario mixes against a
// seda-serve replica or the seda-router fleet, measures client-side
// latency percentiles on obs.Histogram (the same log-bucket layout the
// servers expose on /metrics), classifies every response into an
// error/shed/stale taxonomy, scrapes /metrics before and after each
// phase to attribute cache and router counter deltas to the traffic
// that caused them, and emits a machine-readable report.
//
// Everything the generator sends is derived deterministically from
// (scenario, seed): the same seed replays a byte-identical request
// schedule, so a measured run names its workload exactly and a report
// can be reproduced. Because the harness exercises every serving layer
// end to end, it doubles as the deepest black-box test suite the repo
// has — the integration tests assert the serving invariants (warm
// reruns compute nothing, revalidation answers 304 under load, a
// replica kill behind the router costs zero client-visible errors)
// through the same executor every measured report comes from.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/model"
)

// Scenario is one declarative traffic description: an ordered list of
// phases, each with a client count and a weighted request mix. Scenarios
// load from JSON (LoadScenario) or come built in (Builtin).
type Scenario struct {
	Name string `json:"name"`
	// Seed is the default schedule seed; a caller-provided seed (the
	// -seed flag) overrides it.
	Seed   uint64  `json:"seed,omitempty"`
	Phases []Phase `json:"phases"`
}

// Phase is one load segment, executed after the previous phase fully
// completes (the barrier is where the /metrics deltas are cut). Every
// phase is a closed loop: Clients workers each hold at most one request
// open, so throughput self-limits to the target's service rate and
// latencies are service times. (A fixed-rate open loop on a shared
// host measures its own timer wake-ups more than the fleet; the
// benchmark keeps its own open-loop generator for that lag.)
type Phase struct {
	Name    string `json:"name"`
	Clients int    `json:"clients,omitempty"` // default 1
	// Requests bounds the phase by count; Duration bounds it by wall
	// clock. At least one is required. A counted phase has a fully
	// deterministic schedule; a duration-bounded phase consumes the
	// (deterministic) request stream for as long as the clock runs.
	Requests int      `json:"requests,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Mix      []Mix    `json:"mix"`
}

// Mix is one weighted request class within a phase.
type Mix struct {
	// Kind: "sweep" (/v1/sweep), "explore" (/v1/explore) or "catalog"
	// (/v1/workloads and /v1/schemes, alternating).
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight,omitempty"` // relative; default 1

	// Sweep fields. The config universe is the cross product
	// figs × workloads (a workloads entry is a comma-separated subset;
	// "" or "*" selects the full suite). Zipf skews sampling over that
	// universe — first-listed configs are hottest — with exponent s
	// (weight 1/rank^s); 0 means uniform.
	Figs      []string `json:"figs,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Zipf      float64  `json:"zipf,omitempty"`
	// CSV is the fraction of requests negotiating text/csv via Accept;
	// Revalidate the fraction sending If-None-Match with the ETag
	// learned from an earlier response for the same URL (until one is
	// known, the request goes unconditional).
	CSV        float64 `json:"csv,omitempty"`
	Revalidate float64 `json:"revalidate,omitempty"`

	// Explore fields: grid specs (explore.ParseSpec grammar) sampled
	// uniformly, optional base preset and scheme passed through.
	Specs  []string `json:"specs,omitempty"`
	Base   string   `json:"base,omitempty"`
	Scheme string   `json:"scheme,omitempty"`
}

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s") in scenario files.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"2s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("duration %q is negative", s)
	}
	*d = Duration(v)
	return nil
}

// validFigs mirrors the /v1/sweep figure names; the generator
// validates at parse time so a bad scenario fails before any traffic.
var validFigs = map[string]bool{"5a": true, "5b": true, "6a": true, "6b": true}

// ParseScenario decodes and validates one scenario document. Unknown
// fields are errors (a typoed knob must not silently produce a
// different workload than the one named in the report).
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return &sc, nil
}

// LoadScenario resolves name to a built-in scenario or a JSON file
// path (a path wins when the file exists).
func LoadScenario(name string) (*Scenario, error) {
	if f, err := os.Open(name); err == nil {
		defer f.Close() //nolint:errcheck
		return ParseScenario(f)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if sc, ok := Builtin(name); ok {
		return sc, nil
	}
	return nil, fmt.Errorf("scenario %q: no such file and no such built-in (built-ins: %s)", name, strings.Join(BuiltinNames(), ", "))
}

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("missing name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	seen := make(map[string]bool)
	for i := range sc.Phases {
		p := &sc.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("phase %d: missing name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("phase %q: duplicate phase name", p.Name)
		}
		seen[p.Name] = true
		if err := p.validate(); err != nil {
			return fmt.Errorf("phase %q: %w", p.Name, err)
		}
	}
	return nil
}

func (p *Phase) validate() error {
	if p.Clients == 0 {
		p.Clients = 1
	}
	if p.Clients < 0 {
		return fmt.Errorf("clients %d must be positive", p.Clients)
	}
	if p.Requests < 0 {
		return fmt.Errorf("requests %d must not be negative", p.Requests)
	}
	if p.Requests == 0 && p.Duration == 0 {
		return fmt.Errorf("needs requests or duration to bound it")
	}
	if len(p.Mix) == 0 {
		return fmt.Errorf("empty mix")
	}
	total := 0.0
	for i := range p.Mix {
		m := &p.Mix[i]
		if err := m.validate(); err != nil {
			return fmt.Errorf("mix entry %d (%s): %w", i, m.Kind, err)
		}
		total += m.Weight
	}
	if total <= 0 {
		return fmt.Errorf("mix weights sum to %v, need > 0", total)
	}
	return nil
}

func (m *Mix) validate() error {
	if m.Weight == 0 {
		m.Weight = 1
	}
	if m.Weight < 0 {
		return fmt.Errorf("weight %v must not be negative", m.Weight)
	}
	switch m.Kind {
	case "sweep":
		if len(m.Figs) == 0 {
			return fmt.Errorf("no figs (want a subset of 5a, 5b, 6a, 6b)")
		}
		for _, f := range m.Figs {
			if !validFigs[f] {
				return fmt.Errorf("unknown fig %q (want 5a, 5b, 6a or 6b)", f)
			}
		}
		if len(m.Workloads) == 0 {
			m.Workloads = []string{"*"}
		}
		for _, ws := range m.Workloads {
			if ws == "" || ws == "*" {
				continue
			}
			for _, name := range strings.Split(ws, ",") {
				if model.ByName(strings.TrimSpace(name)) == nil {
					return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(model.Names(), ", "))
				}
			}
		}
		if m.Zipf < 0 || m.Zipf >= 10 {
			return fmt.Errorf("zipf exponent %v outside [0, 10)", m.Zipf)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"csv", m.CSV}, {"revalidate", m.Revalidate}} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("%s fraction %v outside [0, 1]", f.name, f.v)
			}
		}
		if len(m.Specs) > 0 || m.Base != "" || m.Scheme != "" {
			return fmt.Errorf("specs/base/scheme are explore knobs")
		}
	case "explore":
		if len(m.Specs) == 0 {
			return fmt.Errorf("no specs (explore grid grammar, e.g. \"rows=16|32\")")
		}
		for _, s := range m.Specs {
			if _, err := explore.ParseSpec(s); err != nil {
				return fmt.Errorf("spec %q: %w", s, err)
			}
		}
		if len(m.Figs) > 0 || len(m.Workloads) > 0 || m.Zipf != 0 || m.CSV != 0 || m.Revalidate != 0 {
			return fmt.Errorf("figs/workloads/zipf/csv/revalidate are sweep knobs")
		}
	case "catalog":
		if len(m.Figs) > 0 || len(m.Specs) > 0 {
			return fmt.Errorf("catalog entries take no figs or specs")
		}
	case "":
		return fmt.Errorf("missing kind (sweep, explore or catalog)")
	default:
		return fmt.Errorf("unknown kind %q (want sweep, explore or catalog)", m.Kind)
	}
	return nil
}
