// Command seda-sweep regenerates the paper's evaluation figures:
// Fig. 5 (normalized memory traffic) and Fig. 6 (normalized
// performance) for the 13-workload benchmark suite on the server and
// edge NPUs, plus the Fig. 1(d) motivation data and Table III.
//
// With -explore it instead runs a design-space exploration over a
// parametric platform grid (see internal/explore):
//
//	seda-sweep -explore 'rows=16:256:2x,channels=2|4' -base edge -workloads let
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/explore"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/seda"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 1d, 5a, 5b, 6a, 6b, all")
	table3 := flag.Bool("table3", false, "print Table III (scheme feature comparison) and exit")
	workers := flag.Int("workers", 0, "workload-level worker pool size (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the full suite (both metrics) of the NPUs the figure touches as JSON instead of tables (seda-serve's full-suite wire format)")
	useCache := flag.Bool("cache", false, "memoize sweep results through the content-addressed cache (warm-start reruns)")
	cacheDir := flag.String("cache-dir", "auto", "disk cache directory with -cache; \"auto\" = <user cache dir>/seda-repro (shared with seda-serve), \"off\" = memory only")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (for a single-threaded profile, run with GOMAXPROCS=1)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	timing := flag.Bool("timing", false, "print the pipeline span tree (per-stage wall times) to stderr as JSON when done")
	exploreSpec := flag.String("explore", "", "run a design-space exploration over this grid spec (e.g. 'rows=16:256:2x,channels=2|4') instead of regenerating figures")
	exploreBase := flag.String("base", "", "with -explore: platform preset the grid perturbs (default edge)")
	exploreWorkloads := flag.String("workloads", "", "with -explore: comma-separated workload subset (default: the full suite)")
	exploreScheme := flag.String("scheme", "", "with -explore: protection scheme explored under (default SeDA)")
	flag.Parse()

	if *table3 {
		printTable3()
		return
	}

	var err error
	profiles, err = obs.StartProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		fatal(err)
	}
	defer profiles.Stop() //nolint:errcheck

	opts := seda.SuiteOptions{Workers: *workers}

	// With -cache, results are served through the same content-addressed
	// cache seda-serve uses; the default disk layer makes reruns of an
	// already-swept figure near-instant (and shares warmth with a local
	// seda-serve).
	var cache *rescache.Cache
	if *useCache {
		var err error
		cache, err = rescache.New(rescache.Options{Dir: rescache.ResolveDir(*cacheDir)})
		if err != nil {
			fatal(err)
		}
	}

	server := seda.ServerNPU()
	edge := seda.EdgeNPU()

	needServer := *fig == "all" || *fig == "5a" || *fig == "6a" || *fig == "1d"
	needEdge := *fig == "all" || *fig == "5b" || *fig == "6b"

	// Ctrl-C cancels the in-flight evaluation cooperatively (the
	// pipeline observes ctx down to the DRAM drain loops) instead of
	// letting a multi-second sweep run to completion; a second signal
	// falls back to the default handler and kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -timing arms a tracer over everything that runs below; the tree
	// prints to stderr on the success path (fatal exits skip it).
	if *timing {
		var tr *obs.Tracer
		ctx, tr = obs.NewTracer(ctx, "seda-sweep")
		defer func() {
			tr.Finish()
			tr.WriteJSON(os.Stderr, true) //nolint:errcheck
		}()
	}

	if *exploreSpec != "" {
		if err := runExplore(ctx, cache, opts, *exploreSpec, *exploreBase, *exploreWorkloads, *exploreScheme, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	var srv, edg *seda.SuiteResult
	if needServer {
		if srv, err = seda.RunSuiteCachedCtx(ctx, cache, server, model.All(), opts); err != nil {
			fatal(err)
		}
	}
	if needEdge {
		if edg, err = seda.RunSuiteCachedCtx(ctx, cache, edge, model.All(), opts); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		var suites []*seda.SuiteResult
		if srv != nil {
			suites = append(suites, srv)
		}
		if edg != nil {
			suites = append(suites, edg)
		}
		if len(suites) == 0 {
			fatal(fmt.Errorf("unknown figure %q", *fig))
		}
		if len(suites) == 1 {
			err = suites[0].WriteJSON(os.Stdout)
		} else {
			err = seda.WriteSuitesJSON(os.Stdout, suites...)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	switch *fig {
	case "1d":
		printFig1d(srv)
	case "5a":
		srv.WriteTrafficTable(os.Stdout)
	case "5b":
		edg.WriteTrafficTable(os.Stdout)
	case "6a":
		srv.WritePerfTable(os.Stdout)
	case "6b":
		edg.WritePerfTable(os.Stdout)
	case "all":
		printFig1d(srv)
		fmt.Println()
		srv.WriteTrafficTable(os.Stdout)
		fmt.Println()
		edg.WriteTrafficTable(os.Stdout)
		fmt.Println()
		srv.WritePerfTable(os.Stdout)
		fmt.Println()
		edg.WritePerfTable(os.Stdout)
		fmt.Printf("\nHeadline: SeDA reduces avg performance overhead vs SGX-64B by %.2f%% (server), %.2f%% (edge)\n",
			srv.HeadlineImprovement(), edg.HeadlineImprovement())
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

// runExplore is the -explore mode: parse the grid, run the
// surrogate-pruned exploration, and print either the full JSON wire
// form (-json) or a frontier table plus a grep-friendly summary line.
func runExplore(ctx context.Context, cache *rescache.Cache, opts seda.SuiteOptions, rawSpec, baseName, workloads, schemeName string, jsonOut bool) error {
	req, err := explore.ParseRequest(rawSpec, baseName, workloads, schemeName, "")
	if err != nil {
		return err
	}
	res, err := explore.Run(ctx, req.Spec, req.Base, explore.Options{
		Workloads: req.Workloads,
		Scheme:    req.Scheme,
		Cache:     cache,
		Suite:     opts,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return res.WriteJSON(os.Stdout)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Pareto frontier of %s over base %s (scheme %s, workloads %s)\n",
		res.Spec, res.Base, res.Scheme.Name(), strings.Join(res.Workloads, ","))
	fmt.Fprintln(w, "point\tcost\tsurrogate cycles\texec cycles")
	for _, i := range res.Frontier {
		p := &res.Points[i]
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%d\n", p.Config.Name, p.Cost, p.SurrogateCycles, p.ExecCycles)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("explore: points=%d invalid=%d candidates=%d confirmed=%d frontier=%d margin=%.3f",
		len(res.Points)+res.Invalid, res.Invalid, res.Candidates(), res.Confirmed(), len(res.Frontier), res.Margin)
	if cache != nil {
		fmt.Printf(" fresh_computes=%d", cache.Stats().Computes)
	}
	fmt.Println()
	return nil
}

// printFig1d reproduces the motivation figure: memory-access overhead
// (traffic and execution time) of a typical secure accelerator
// (SGX-64B) per workload.
func printFig1d(s *seda.SuiteResult) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 1(d) — memory access overhead of a typical secure accelerator (SGX-64B, server NPU)")
	fmt.Fprintln(w, "workload\ttraffic overhead(%)\texec. time overhead(%)")
	var tSum, eSum float64
	names := s.Workloads()
	for _, name := range names {
		r, err := seda.SchemeRow(s.Rows[name], memprot.SchemeSGX64)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\n", name, r.TrafficOverhead()*100, r.PerfOverhead()*100)
		tSum += r.TrafficOverhead()
		eSum += r.PerfOverhead()
	}
	fmt.Fprintf(w, "avg\t%.2f\t%.2f\n", tSum/float64(len(names))*100, eSum/float64(len(names))*100)
	w.Flush() //nolint:errcheck
}

func printTable3() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table III — comparison of memory protection schemes")
	fmt.Fprintln(w, "scheme\tencryption\tintegrity\toff-chip metadata\ttiling-aware\tscalable-encryption")
	for _, s := range seda.Schemes() {
		if s.Kind == memprot.Baseline {
			continue
		}
		f := s.FeatureRow()
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			s.Name(), f.EncryptionGranularity, f.IntegrityGranularity,
			f.OffChipMetadata, check(f.TilingAware), check(f.EncryptionScalable))
	}
	w.Flush() //nolint:errcheck
}

func check(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// profiles holds the -cpuprofile/-memprofile/-trace outputs, kept so
// fatal can flush them: os.Exit skips defers, and an unflushed pprof
// file is truncated junk.
var profiles *obs.Profiles

func fatal(err error) {
	profiles.Stop() //nolint:errcheck
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "seda-sweep: interrupted")
		os.Exit(130) // conventional 128+SIGINT
	}
	fmt.Fprintln(os.Stderr, "seda-sweep:", err)
	os.Exit(1)
}
