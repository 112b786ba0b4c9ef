package loadgen

import (
	"sort"
	"time"
)

// builtins are the scenarios shipped with the harness. They target the
// millisecond-scale workloads (let, ncf, sent — the same set the CI
// smoke jobs use) so a run stays in seconds, and each one exercises a
// distinct slice of the serving surface:
//
//   - smoke: a short closed-loop pass over sweeps (JSON and CSV,
//     revalidation) plus the catalog — the CI loadgen-smoke scenario.
//   - hot-mix: Zipf-skewed hot configs under an open-loop arrival
//     stream with revalidation, CSV negotiation and an explore grid
//     riding along — the realistic-traffic capacity scenario.
//   - capacity: a closed-loop warmup, then one open-loop phase over
//     the hot sweep mix at a fixed offered rate.
//   - chaos: one long closed-loop phase against a fixed hot config —
//     the router kill-window regression runs this while a replica dies
//     and asserts zero client-visible errors.
var builtins = map[string]*Scenario{
	"smoke": {
		Name: "smoke",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "warm", Mode: "closed", Clients: 2, Requests: 24,
				Mix: []Mix{
					{Kind: "sweep", Weight: 3, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}},
					{Kind: "catalog", Weight: 1},
				},
			},
			{
				Name: "steady", Mode: "closed", Clients: 4, Requests: 160,
				Mix: []Mix{
					{Kind: "sweep", Weight: 8, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}, Zipf: 1.1, CSV: 0.25, Revalidate: 0.25},
					{Kind: "catalog", Weight: 1},
				},
			},
			{
				Name: "sustain", Mode: "closed", Clients: 4, Duration: Duration(5 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b"}, Workloads: []string{"let,ncf"}, Revalidate: 0.5},
				},
			},
		},
	},
	"hot-mix": {
		Name: "hot-mix",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "warm", Mode: "closed", Clients: 2, Requests: 32,
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf,sent", "let,ncf", "let", "ncf", "sent"}},
				},
			},
			{
				Name: "mixed", Mode: "open", Rate: 80, Duration: Duration(10 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 16, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf,sent", "let,ncf", "let", "ncf", "sent"}, Zipf: 1.2, CSV: 0.2, Revalidate: 0.3},
					{Kind: "explore", Weight: 1, Specs: []string{"rows=16|32", "rows=16|32,channels=2|4"}, Workloads: nil},
					{Kind: "catalog", Weight: 2},
				},
			},
		},
	},
	"capacity": {
		Name: "capacity",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "warm", Mode: "closed", Clients: 2, Requests: 24,
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}},
				},
			},
			{
				Name: "offered", Mode: "open", Rate: 100, Duration: Duration(8 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}, Zipf: 1.1, Revalidate: 0.25},
				},
			},
		},
	},
	"chaos": {
		Name: "chaos",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "kill-window", Mode: "closed", Clients: 4, Duration: Duration(6 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b"}, Workloads: []string{"let,ncf"}},
				},
			},
		},
	},
}

// Builtin returns a deep copy of the named built-in scenario (callers
// mutate phases when scaling durations), validated like a parsed one.
func Builtin(name string) (*Scenario, bool) {
	sc, ok := builtins[name]
	if !ok {
		return nil, false
	}
	cp := *sc
	cp.Phases = make([]Phase, len(sc.Phases))
	for i, p := range sc.Phases {
		cp.Phases[i] = p
		cp.Phases[i].Mix = append([]Mix(nil), p.Mix...)
	}
	if err := cp.validate(); err != nil {
		panic("loadgen: built-in scenario " + name + " invalid: " + err.Error())
	}
	return &cp, true
}

// BuiltinNames lists the built-in scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
