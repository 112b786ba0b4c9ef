package seda

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
)

// SuiteResult holds a full Fig. 5/6 sweep for one NPU: every workload
// of the paper's benchmark set against every scheme.
type SuiteResult struct {
	NPU  NPUConfig
	Rows map[string][]RunResult // workload short name -> per-scheme rows
}

// SuiteOptions tunes how a sweep executes. The pipeline is
// deterministic under every setting: any worker count produces
// byte-identical results (see TestSuiteDeterminism).
type SuiteOptions struct {
	// Workers bounds how many workloads evaluate concurrently.
	// 0 (the default) means GOMAXPROCS.
	Workers int
}

// DefaultSuiteOptions runs a GOMAXPROCS-bounded workload pool.
func DefaultSuiteOptions() SuiteOptions { return SuiteOptions{} }

// SequentialOptions evaluates one workload at a time. Each workload
// still runs its six schemes concurrently; for a single-threaded run,
// set GOMAXPROCS=1.
func SequentialOptions() SuiteOptions { return SuiteOptions{Workers: 1} }

func (o SuiteOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSuiteOptsCtx evaluates the given workloads on one NPU.
// Workloads are independent given their own simulator state, so they
// run through a pool of opts.Workers goroutines; results are collected
// per slot and assembled in input order, and the first error (in input
// order) wins, so output is independent of scheduling. Cancellation
// propagates into every in-flight workload evaluation (see
// RunNetworkOptsCtx) and stops the pool dispatching new ones; a
// cancelled sweep returns ctx.Err() and no partial result.
func RunSuiteOptsCtx(ctx context.Context, npu NPUConfig, nets []*model.Network, opts SuiteOptions) (*SuiteResult, error) {
	return runSuiteWith(ctx, npu, nets, opts, func(ctx context.Context, n *model.Network) ([]RunResult, error) {
		return RunNetworkOptsCtx(ctx, npu, n, opts)
	})
}

// runSuiteWith is the suite scaffolding shared by RunSuiteOptsCtx and
// RunSuiteCachedCtx: a bounded worker pool over the workloads, per-slot
// result collection, and input-order assembly and error reporting.
// The context gates dispatch (no new workload starts once it is
// cancelled) and is passed to run for intra-workload cancellation;
// when it expires, the first error reported is ctx.Err() itself, so
// callers see the cancellation rather than an arbitrary workload's
// wrapped copy of it.
func runSuiteWith(ctx context.Context, npu NPUConfig, nets []*model.Network, opts SuiteOptions, run func(context.Context, *model.Network) ([]RunResult, error)) (*SuiteResult, error) {
	ctx, suiteSpan := obs.Start(ctx, obs.StageSuite)
	suiteSpan.SetDetail(npu.Name)
	defer suiteSpan.End()
	inner := run
	run = func(ctx context.Context, n *model.Network) ([]RunResult, error) {
		ctx, sp := obs.Start(ctx, obs.StageWorkload)
		sp.SetDetail(n.Name)
		defer sp.End()
		return inner(ctx, n)
	}

	workers := opts.workers()
	if workers > len(nets) {
		workers = len(nets)
	}

	rows := make([][]RunResult, len(nets))
	errs := make([]error, len(nets))
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers <= 1 {
		for i, n := range nets {
			if cancelled() {
				break
			}
			rows[i], errs[i] = run(ctx, n)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					rows[i], errs[i] = run(ctx, nets[i])
				}
			}()
		}
	dispatch:
		for i := range nets {
			select {
			case idx <- i:
			case <-done:
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &SuiteResult{NPU: npu, Rows: make(map[string][]RunResult, len(nets))}
	for i, n := range nets {
		if errs[i] != nil {
			return nil, fmt.Errorf("seda: %s on %s: %w", n.Name, npu.Name, errs[i])
		}
		res.Rows[n.Name] = rows[i]
	}
	return res, nil
}

// Workloads returns the workload names present, in the paper's order
// where possible.
func (s *SuiteResult) Workloads() []string {
	order := map[string]int{}
	for i, n := range model.Names() {
		order[n] = i
	}
	names := make([]string, 0, len(s.Rows))
	for n := range s.Rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// AvgNormTraffic averages a scheme's normalized traffic across
// workloads (the "avg" bar of Fig. 5).
func (s *SuiteResult) AvgNormTraffic(scheme memprot.Scheme) float64 {
	return s.avg(scheme, func(r RunResult) float64 { return r.NormTraffic })
}

// AvgNormPerf averages a scheme's normalized performance across
// workloads (the "avg" bar of Fig. 6).
func (s *SuiteResult) AvgNormPerf(scheme memprot.Scheme) float64 {
	return s.avg(scheme, func(r RunResult) float64 { return r.NormPerf })
}

func (s *SuiteResult) avg(scheme memprot.Scheme, f func(RunResult) float64) float64 {
	// Sum in Workloads() order, not map order: float addition is not
	// associative, so a map-order walk made the last few bits of the
	// averages (and every serialized byte downstream) vary run to run.
	var sum float64
	var n int
	for _, name := range s.Workloads() {
		for _, r := range s.Rows[name] {
			if r.Scheme == scheme {
				sum += f(r)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteTrafficTable prints the Fig. 5 data (normalized memory traffic
// per workload and scheme, plus the average row).
func (s *SuiteResult) WriteTrafficTable(w io.Writer) {
	s.writeTable(w, "Norm. Mem. Traffic", func(r RunResult) float64 { return r.NormTraffic })
}

// WritePerfTable prints the Fig. 6 data (normalized performance per
// workload and scheme, plus the average row).
func (s *SuiteResult) WritePerfTable(w io.Writer) {
	s.writeTable(w, "Norm. Performance", func(r RunResult) float64 { return r.NormPerf })
}

func (s *SuiteResult) writeTable(w io.Writer, title string, f func(RunResult) float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (%s NPU)\n", title, s.NPU.Name)
	fmt.Fprint(tw, "workload")
	schemes := Schemes()
	for _, sc := range schemes {
		fmt.Fprintf(tw, "\t%s", sc.Name())
	}
	fmt.Fprintln(tw)
	for _, name := range s.Workloads() {
		fmt.Fprint(tw, name)
		for _, sc := range schemes {
			r, err := SchemeRow(s.Rows[name], sc)
			if err != nil {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.3f", f(r))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "avg")
	for _, sc := range schemes {
		fmt.Fprintf(tw, "\t%.3f", s.avg(sc, f))
	}
	fmt.Fprintln(tw)
	tw.Flush() //nolint:errcheck
}

// HeadlineImprovement returns how much SeDA reduces average
// performance overhead relative to SGX-64B (percentage points) — the
// abstract's ">12%" claim compares the protection overhead SeDA
// removes.
func (s *SuiteResult) HeadlineImprovement() float64 {
	sgx := 1 - s.AvgNormPerf(memprot.SchemeSGX64)
	seda := 1 - s.AvgNormPerf(memprot.SchemeSeDA)
	return (sgx - seda) * 100
}
