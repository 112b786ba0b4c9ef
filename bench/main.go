// Command bench is the repository's benchmark. It builds seda-sweep,
// seda-serve and seda-router from source, runs one workload against
// them, checks every output they give, and prints each metric as
//
//	workload metric value unit (n, q1, q3)
//
// followed by one JSON line: {"correct", "attempted", "failed",
// "metrics"}. It exits non-zero when any output was wrong. Run it from
// the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it runs the traced run instead and reports the
// per-layer metrics. `bench compare BASE HEAD` compares two files of
// records written with --out; see compare.go and README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to what runs it; names lists them
// in the order README.md describes them.
var (
	names     = []string{"suite-cold", "suite-1cpu", "serve-warm", "serve-cold"}
	workloads = map[string]func(context.Context, *env) (*result, error){
		"suite-cold": func(ctx context.Context, e *env) (*result, error) { return runSuite(ctx, e, e.nproc) },
		"suite-1cpu": func(ctx context.Context, e *env) (*result, error) { return runSuite(ctx, e, 1) },
		"serve-warm": runServeWarm,
		"serve-cold": runServeCold,
	}
)

// buildDir holds everything the benchmark builds or writes, under the
// repository root.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "how long the workload measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this file as one JSON line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: want --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rec, err := run(ctx, root, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := rec.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// findRoot returns the repository root: the working directory, or its
// parent when run from bench/ (as `go test` does).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("no BENCHMARK.json here or one level up: run from the repository root")
}

// record is one run: its settings, where it ran, its correctness
// accounting and its metrics. --out appends it as one JSON line; bench
// compare reads those lines.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Revision   string            `json:"revision"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// run builds the programs and runs one workload, or its traced run.
func run(ctx context.Context, root, workload string, seed uint64, seconds time.Duration, trace bool) (*record, error) {
	spec, err := readSpec(root)
	if err != nil {
		return nil, err
	}
	gold, err := loadGoldens(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:    root,
		bin:     filepath.Join(root, buildDir, "bin"),
		dir:     filepath.Join(root, buildDir, "run", workload),
		seed:    seed,
		seconds: seconds,
		nproc:   runtime.NumCPU(),
		gold:    gold,
	}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/seda-sweep", "./cmd/seda-serve", "./cmd/seda-router")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building the programs: %w", err)
	}

	var res *result
	if trace {
		res, err = runTrace(ctx, e)
	} else {
		res, err = workloads[workload](ctx, e)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	checkMetrics(res, want)
	if res.attempted == 0 {
		res.problem("no operation was attempted")
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	rec := &record{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds.Seconds(),
		Trace:      trace,
		Revision:   revision(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      e.nproc,
		Correct:    len(res.problems) == 0 && res.failed == 0,
		Attempted:  res.attempted,
		Failed:     res.failed,
		Problems:   res.problems,
		Metrics:    make(map[string]metric, len(res.metrics)),
	}
	for _, m := range res.metrics {
		rec.Metrics[m.Name] = m
	}
	return rec, nil
}

// checkMetrics records a problem unless the run produced exactly the
// metrics BENCHMARK.json lists, each with its unit and a finite value.
func checkMetrics(res *result, want []specMetric) {
	got := make(map[string]metric, len(res.metrics))
	for _, m := range res.metrics {
		got[m.Name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			res.problem("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			res.problem("metric %s is in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.problem("metric %s is not a finite number", w.Name)
		}
		delete(got, w.Name)
	}
	for name := range got {
		res.problem("metric %s is not in BENCHMARK.json", name)
	}
}

// revision is the checkout's git revision, marked -dirty when the
// working tree differs from it, or "unknown" outside git.
func revision(root string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	if st, err := git("status", "--porcelain"); err != nil || st != "" {
		rev += "-dirty"
	}
	return rev
}

// print writes one line per metric and, last, the result as one JSON
// object.
func (rec *record) print(w io.Writer) error {
	keys := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]value, len(keys))}
	for _, name := range keys {
		m := rec.Metrics[name]
		if _, err := fmt.Fprintf(w, "%s %s %s %s (%d, %s, %s)\n", rec.Workload, name, g(m.Value), m.Unit, m.N, g(m.Q1), g(m.Q3)); err != nil {
			return err
		}
		last.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// specMetric is one metric BENCHMARK.json declares.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
