package loadgen

import (
	"sort"
	"time"
)

// builtins are the scenarios shipped with the harness. They target the
// millisecond-scale workloads (let and ncf — the same set the CI smoke
// jobs use) so a run stays in seconds:
//
//   - smoke: a short pass over sweeps (JSON and CSV, revalidation)
//     plus the catalog — the CI loadgen-smoke scenario.
//   - chaos: one long phase against a fixed hot config — the router
//     kill-window regression runs this while a replica dies and
//     asserts zero client-visible errors.
var builtins = map[string]*Scenario{
	"smoke": {
		Name: "smoke",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "warm", Clients: 2, Requests: 24,
				Mix: []Mix{
					{Kind: "sweep", Weight: 3, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}},
					{Kind: "catalog", Weight: 1},
				},
			},
			{
				Name: "steady", Clients: 4, Requests: 160,
				Mix: []Mix{
					{Kind: "sweep", Weight: 8, Figs: []string{"5b", "6b"}, Workloads: []string{"let,ncf", "let", "ncf"}, Zipf: 1.1, CSV: 0.25, Revalidate: 0.25},
					{Kind: "catalog", Weight: 1},
				},
			},
			{
				Name: "sustain", Clients: 4, Duration: Duration(5 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b"}, Workloads: []string{"let,ncf"}, Revalidate: 0.5},
				},
			},
		},
	},
	"chaos": {
		Name: "chaos",
		Seed: 1,
		Phases: []Phase{
			{
				Name: "kill-window", Clients: 4, Duration: Duration(6 * time.Second),
				Mix: []Mix{
					{Kind: "sweep", Weight: 1, Figs: []string{"5b"}, Workloads: []string{"let,ncf"}},
				},
			},
		},
	},
}

// Builtin returns a deep copy of the named built-in scenario, validated
// like a parsed one.
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
