package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// goldens holds the committed suite results (seda/testdata) the
// benchmark checks every suite it is served against.
type goldens struct {
	server, edge string
	workloads    []string // the suite's workload names, in figure order
}

func loadGoldens(root string) (*goldens, error) {
	g := &goldens{}
	for _, f := range []struct {
		npu string
		dst *string
	}{{"server", &g.server}, {"edge", &g.edge}} {
		b, err := os.ReadFile(filepath.Join(root, "seda", "testdata", "suite_"+f.npu+".json"))
		if err != nil {
			return nil, err
		}
		*f.dst = string(b)
	}
	// The "workloads" array lists one quoted name per line.
	_, rest, ok := strings.Cut(g.server, `"workloads": [`)
	list, _, ok2 := strings.Cut(rest, "]")
	if !ok || !ok2 {
		return nil, fmt.Errorf("server golden has no workloads array")
	}
	for _, line := range strings.Split(list, "\n") {
		if name := strings.Trim(strings.TrimSpace(line), `",`); name != "" {
			g.workloads = append(g.workloads, name)
		}
	}
	return g, nil
}

// sweepAll is the text `seda-sweep -fig all -json` must print: the two
// goldens as one indented JSON array, server first.
func (g *goldens) sweepAll() string {
	indent := func(doc string) string {
		lines := strings.Split(strings.TrimSuffix(doc, "\n"), "\n")
		for i := range lines {
			lines[i] = "  " + lines[i]
		}
		return strings.Join(lines, "\n")
	}
	return "[\n" + indent(g.server) + ",\n" + indent(g.edge) + "\n]\n"
}

// diffGolden compares got with want line by line and describes the
// first difference, or returns "" when they match. Lines holding the
// pipeline version may differ: the goldens predate the current version
// and the rows, averages and headline are what they pin.
func diffGolden(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		return fmt.Sprintf("%d lines, golden has %d", len(g), len(w))
	}
	for i := range w {
		if g[i] == w[i] || (strings.Contains(w[i], `"pipeline_version":`) && strings.Contains(g[i], `"pipeline_version":`)) {
			continue
		}
		return fmt.Sprintf("line %d is %q, golden has %q", i+1, strings.TrimSpace(g[i]), strings.TrimSpace(w[i]))
	}
	return ""
}
