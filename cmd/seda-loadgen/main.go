// Command seda-loadgen is the synthetic traffic harness for the
// serving stack. It replays a declarative scenario (a built-in name or
// a JSON file) against one seda-serve replica or the seda-router
// fleet, measures client-side latency on HDR-style log-bucketed
// histograms (coordinated-omission-corrected for open-loop phases),
// classifies every response into an ok/stale/304/shed/error taxonomy,
// scrapes /metrics at every phase boundary to attribute cache and
// router counter deltas to the traffic that caused them, and writes a
// machine-readable report.
//
// Everything sent is a pure function of (scenario, seed): the same
// -seed replays a byte-identical request schedule (dump it with
// -plan), and the report embeds the schedule's SHA-256 digest so a
// measurement names its workload exactly.
//
// Modes:
//
//	seda-loadgen -target URL -scenario smoke -report out.json
//	    replay a scenario, write the measured report
//	seda-loadgen -scenario smoke -plan
//	    print the deterministic plan report (no traffic)
//	seda-loadgen -scenario smoke -schedule-out sched.tsv
//	    dump the request schedule (no traffic)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/seda"
)

func main() {
	target := flag.String("target", "", "base URL traffic is sent to (replica or router), e.g. http://127.0.0.1:8344")
	scenario := flag.String("scenario", "smoke", "scenario: a JSON file path or a built-in name ("+strings.Join(loadgen.BuiltinNames(), ", ")+")")
	seed := flag.Uint64("seed", 0, "schedule seed; 0 uses the scenario's embedded seed. Identical seeds replay byte-identical schedules")
	plan := flag.Bool("plan", false, "print the deterministic plan report and exit without sending traffic")
	scheduleOut := flag.String("schedule-out", "", "write the request schedule dump to this file (\"-\" = stdout) and exit without sending traffic")
	reportOut := flag.String("report", "-", "write the report JSON here (\"-\" = stdout)")
	scrape := flag.String("scrape", "", "comma-separated extra /metrics base URLs (default: the target). Behind a router, list the router and every replica so cache counters attribute")
	scaleDuration := flag.Float64("scale-duration", 1, "multiply every phase duration (CI runs long scenarios briefly; request counts are untouched)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	maxInflight := flag.Int("max-inflight", 512, "open-loop concurrency cap; arrivals past it are counted dropped, not queued")
	quiet := flag.Bool("quiet", false, "suppress per-phase progress lines on stderr")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		fmt.Printf("seda-loadgen %s revision %s pipeline %s %s report-schema %s\n",
			b.ModuleVersion, b.Revision, seda.PipelineVersion, b.GoVersion, loadgen.ReportVersion)
		return
	}

	sc, err := loadgen.LoadScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	sc.ScaleDurations(*scaleDuration)
	useSeed := *seed
	if useSeed == 0 {
		useSeed = sc.Seed
	}
	if useSeed == 0 {
		useSeed = 1
	}

	// Traffic-free modes first: they must work without a target.
	if *scheduleOut != "" {
		out := os.Stdout
		if *scheduleOut != "-" {
			f, err := os.Create(*scheduleOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close() //nolint:errcheck
			out = f
		}
		digest, err := sc.WriteSchedule(out, useSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "seda-loadgen: schedule digest %s\n", digest)
		return
	}
	if *plan {
		if err := loadgen.Plan(sc, useSeed).WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *target == "" {
		fatal(fmt.Errorf("-target is required (or use -plan / -schedule-out for traffic-free modes)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runOpts := loadgen.RunOptions{
		Scenario:       sc,
		Seed:           useSeed,
		Target:         *target,
		RequestTimeout: *timeout,
		MaxInflight:    *maxInflight,
	}
	if *scrape != "" {
		for _, ep := range strings.Split(*scrape, ",") {
			if ep = strings.TrimSpace(ep); ep != "" {
				runOpts.Scrape = append(runOpts.Scrape, strings.TrimRight(ep, "/"))
			}
		}
	}
	if !*quiet {
		runOpts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "seda-loadgen: "+format+"\n", args...)
		}
	}

	rep, err := loadgen.Run(ctx, runOpts)
	if err != nil {
		fatal(err)
	}

	out := os.Stdout
	if *reportOut != "-" && *reportOut != "" {
		f, err := os.Create(*reportOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close() //nolint:errcheck
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seda-loadgen:", err)
	os.Exit(1)
}
