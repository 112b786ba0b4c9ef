package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareMain is `bench compare BASE HEAD`. BASE and HEAD are files of
// records written with --out by runs of the parent commit and of the
// change, made in alternation with the same settings. For every
// (workload, metric) in both it prints each side's median and quartiles
// and a verdict:
//
//   - gain: the change wins at least 9 of every 10 pairs (run i of one
//     side against run i of the other; ties count for neither) and the
//     medians differ by more than the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by
//     more than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own runs spread (interquartile range over
//     median) wider than the bound, so "no worse than the bound" cannot
//     be shown, unless every run of the change beat every run of the
//     parent;
//   - same: none of these.
//
// Per-layer metrics have no bound: they are gains or "-". It exits 1
// when any metric regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	rows, err := compareFiles(args[0], args[1])
	if err == nil {
		err = writeComparison(w, rows)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	for _, r := range rows {
		if r.verdict == "regression" {
			return 1
		}
	}
	return 0
}

func compareFiles(basePath, headPath string) ([]comparison, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := readSpec(root)
	if err != nil {
		return nil, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return nil, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return nil, err
	}
	return compare(spec, base, head), nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// comparison is the verdict on one (workload, metric).
type comparison struct {
	workload, metric, unit string
	base, head             []float64
	wins, pairs            int
	change                 float64 // relative change of the median; positive is worse
	bound                  float64 // NaN for per-layer metrics
	verdict                string
}

func compare(spec *benchSpec, base, head []record) []comparison {
	type key struct{ workload, metric string }
	values := func(recs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range recs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	b, h := values(base), values(head)
	var rows []comparison
	for _, wl := range names {
		for _, group := range []struct {
			metrics []specMetric
			bounded bool
		}{{spec.EndToEnd, true}, {spec.PerLayer, false}} {
			for _, sm := range group.metrics {
				k := key{wl, sm.Name}
				if len(b[k]) == 0 || len(h[k]) == 0 {
					continue
				}
				bound := math.NaN()
				if group.bounded {
					bound = sm.Bound
				}
				c := judge(sm.Better == "higher", bound, b[k], h[k])
				c.workload, c.metric, c.unit = wl, sm.Name, sm.Unit
				rows = append(rows, c)
			}
		}
	}
	return rows
}

// judge applies the rules compareMain describes to one metric's runs.
func judge(higherBetter bool, bound float64, base, head []float64) comparison {
	c := comparison{base: base, head: head, bound: bound, pairs: min(len(base), len(head))}
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < c.pairs; i++ {
		if better(head[i], base[i]) {
			c.wins++
		}
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	if mb != 0 {
		c.change = (mh - mb) / math.Abs(mb)
		if higherBetter {
			c.change = -c.change
		}
	}
	// Every run of the change beats every run of the parent when its
	// worst run beats the parent's best.
	hs, bs := sorted(head), sorted(base)
	allBetter := better(hs[len(hs)-1], bs[0])
	if higherBetter {
		allBetter = better(hs[0], bs[len(bs)-1])
	}
	switch {
	case c.pairs > 0 && c.wins*10 >= 9*c.pairs && better(mh, mb) && math.Abs(mh-mb) > q3-q1:
		c.verdict = "gain"
	case math.IsNaN(bound):
		c.verdict = "-"
	case c.change > bound:
		c.verdict = "regression"
	case mb != 0 && (q3-q1)/math.Abs(mb) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "same"
	}
	return c
}

func writeComparison(w io.Writer, rows []comparison) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\thead median [q1, q3] (n)\tworse by\tbound\twins\tverdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, r := range rows {
		bound := "-"
		if !math.IsNaN(r.bound) {
			bound = fmt.Sprintf("%.0f%%", 100*r.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, side(r.base), side(r.head), 100*r.change, bound, r.wins, r.pairs, r.verdict)
	}
	return tw.Flush()
}
