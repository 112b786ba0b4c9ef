package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
)

// Req is one planned request. The whole struct is a pure function of
// (scenario, seed, position): the executor only fills in the runtime
// If-None-Match value (Reval marks intent; the validator itself is
// learned from earlier responses, so it cannot be part of the plan).
type Req struct {
	Phase  string
	Seq    int    // 0-based position within the phase
	Path   string // path?query
	Accept string // "" = no Accept header (JSON default)
	Reval  bool   // attach If-None-Match when a validator is known
}

// planCap bounds how much of an unbounded stream (a duration-bounded
// phase) the plan dump materializes. The prefix is still
// byte-identical per seed; the cap only keeps dumps finite.
const planCap = 512

// phaseStream generates one phase's request sequence. Every draw comes
// from a per-phase PCG seeded by (seed, phase index), and each request
// consumes a fixed number of draws for its kind, so the sequence is a
// pure function of (scenario, seed) — the determinism the schedule
// digest and the -plan byte-identity test pin.
type phaseStream struct {
	phase *Phase
	rng   *rand.Rand
	mixes []*mixSampler
	cum   []float64 // cumulative mix weights
	total float64

	n int
}

func newPhaseStream(p *Phase, seed uint64, idx int) *phaseStream {
	s := &phaseStream{
		phase: p,
		// golden-ratio odd constant decorrelates phase sub-streams of
		// one seed without coupling them to phase order changes alone.
		rng: rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15*uint64(idx+1))),
	}
	for i := range p.Mix {
		s.mixes = append(s.mixes, newMixSampler(&p.Mix[i]))
		s.total += p.Mix[i].Weight
		s.cum = append(s.cum, s.total)
	}
	return s
}

// next returns the next planned request; ok=false once a counted
// phase is exhausted. A duration-bounded phase's stream never ends:
// the wall clock, not the stream, ends it.
func (s *phaseStream) next() (Req, bool) {
	p := s.phase
	if p.Requests > 0 && s.n >= p.Requests {
		return Req{}, false
	}
	m := s.mixes[s.pickMix()]
	path, accept, reval := m.sample(s.rng)
	req := Req{Phase: p.Name, Seq: s.n, Path: path, Accept: accept, Reval: reval}
	s.n++
	return req, true
}

func (s *phaseStream) pickMix() int {
	u := s.rng.Float64() * s.total
	return sort.SearchFloat64s(s.cum, u)
}

// mixSampler samples concrete requests for one mix entry.
type mixSampler struct {
	mix *Mix
	// sweep: the config universe (figs × workload subsets, listed
	// order) with cumulative Zipf weights — weight 1/rank^s, so the
	// first-listed configs are the hot head of the skew.
	paths []string
	cum   []float64
	total float64
}

func newMixSampler(m *Mix) *mixSampler {
	s := &mixSampler{mix: m}
	switch m.Kind {
	case "sweep":
		for _, fig := range m.Figs {
			for _, ws := range m.Workloads {
				q := url.Values{}
				q.Set("fig", fig)
				if ws != "" && ws != "*" {
					q.Set("workloads", ws)
				}
				s.paths = append(s.paths, "/v1/sweep?"+q.Encode())
			}
		}
	case "explore":
		for _, spec := range m.Specs {
			q := url.Values{}
			q.Set("spec", spec)
			if m.Base != "" {
				q.Set("base", m.Base)
			}
			if m.Scheme != "" {
				q.Set("scheme", m.Scheme)
			}
			s.paths = append(s.paths, "/v1/explore?"+q.Encode())
		}
	case "catalog":
		s.paths = []string{"/v1/workloads", "/v1/schemes"}
	}
	for i := range s.paths {
		w := 1.0
		if m.Kind == "sweep" && m.Zipf > 0 {
			w = 1 / math.Pow(float64(i+1), m.Zipf)
		}
		s.total += w
		s.cum = append(s.cum, s.total)
	}
	return s
}

// sample draws one request. Every call consumes exactly three draws
// (config, csv, revalidate) regardless of the fractions, so mixes stay
// aligned across scenario edits that only move a fraction.
func (s *mixSampler) sample(rng *rand.Rand) (path, accept string, reval bool) {
	u := rng.Float64() * s.total
	path = s.paths[sort.SearchFloat64s(s.cum, u)]
	wantCSV := rng.Float64() < s.mix.CSV
	reval = rng.Float64() < s.mix.Revalidate
	if s.mix.Kind == "sweep" && wantCSV {
		accept = "text/csv"
	}
	return path, accept, reval
}

// WriteSchedule writes the canonical request-schedule encoding for
// (scenario, seed) and returns its SHA-256 digest. One line per
// request: phase, method, path, Accept ("-" for default) and the
// revalidation flag. Identical
// seeds produce byte-identical output — the determinism contract the
// report's schedule_digest names.
func (sc *Scenario) WriteSchedule(w io.Writer, seed uint64) (string, error) {
	h := sha256.New()
	out := io.MultiWriter(w, h)
	if _, err := fmt.Fprintf(out, "# seda-loadgen schedule v2 scenario=%s seed=%d\n", sc.Name, seed); err != nil {
		return "", err
	}
	for i := range sc.Phases {
		st := newPhaseStream(&sc.Phases[i], seed, i)
		for {
			req, ok := st.next()
			if !ok {
				break
			}
			accept := req.Accept
			if accept == "" {
				accept = "-"
			}
			rv := 0
			if req.Reval {
				rv = 1
			}
			if _, err := fmt.Fprintf(out, "%s\tGET\t%s\t%s\t%d\n",
				req.Phase, req.Path, accept, rv); err != nil {
				return "", err
			}
			if st.phase.Requests == 0 && st.n >= planCap {
				if _, err := fmt.Fprintf(out, "# phase %s: unbounded stream truncated at %d planned requests\n",
					req.Phase, planCap); err != nil {
					return "", err
				}
				break
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ScheduleDigest returns the schedule digest without keeping the dump.
func (sc *Scenario) ScheduleDigest(seed uint64) string {
	d, err := sc.WriteSchedule(io.Discard, seed)
	if err != nil {
		panic("loadgen: digest over io.Discard cannot fail: " + err.Error())
	}
	return d
}
