// Command layers is the in-process half of the benchmark's traced run.
// It calls each pipeline layer's public entry point from here, one call
// at a time on one CPU, records a span around every call, and checks
// that the layers composed by hand give exactly the rows seda computes.
//
// It reads the explore requests to replay as JSON on stdin,
//
//	{"explore": [{"spec": "rows=32,sram=480K,channels=4,bw=10e9", "workload": "rest"}]}
//
// and writes its per-layer metrics, checks and spans as JSON on stdout.
// It is a program of its own so that a change to these entry points can
// break only the traced run, never the end-to-end workloads.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/bench/span"
	"repro/internal/dram"
	"repro/internal/explore"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/seda"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Metrics map[string]value `json:"metrics"`
	// ExploreExec is, per replayed explore request, the execution cycles
	// of the point under SeDA as evaluated here.
	ExploreExec []uint64    `json:"explore_exec"`
	Checked     int         `json:"checked"`
	Problems    []string    `json:"problems"`
	Spans       []span.Span `json:"spans"`
}

type exploreQuery struct {
	Spec     string `json:"spec"`
	Workload string `json:"workload"`
}

func main() {
	var in struct {
		Explore []exploreQuery `json:"explore"`
	}
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		fatal(fmt.Errorf("reading the explore requests: %w", err))
	}
	// One CPU: each layer's time is then its own work, not its share of
	// two cores.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	rec := span.NewRecorder()
	out := &output{Metrics: make(map[string]value)}
	seq, err := traceSuite(ctx, rec, out)
	if err != nil {
		fatal(err)
	}
	if err := parallel(ctx, rec, out, seq); err != nil {
		fatal(err)
	}
	if err := attribute(ctx, rec, out); err != nil {
		fatal(err)
	}
	if err := replayExplore(ctx, rec, out, in.Explore); err != nil {
		fatal(err)
	}
	out.Spans = rec.Spans()
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func (o *output) set(name, unit string, v float64) { o.Metrics[name] = value{v, unit} }

// traceSuite evaluates both presets over every workload twice: once
// through seda.RunNetworkOptsCtx, untraced, and once by calling
// scalesim, memprot and dram in turn with a span around each call. The
// composed rows must equal seda's. It returns the untraced total.
func traceSuite(ctx context.Context, rec *span.Recorder, out *output) (time.Duration, error) {
	schemes := seda.Schemes()
	blk := memprot.NewOptBlkCache()
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = blk
	arena, darena := memprot.NewArena(), dram.NewArena()

	var sedaTotal, tracedTotal time.Duration
	var accesses, bursts, rowHits, rowAll, metaBytes uint64
	for _, npu := range seda.NPUPresets() {
		arr, err := scalesim.New(npu.ArrayRows, npu.ArrayCols, npu.SRAMBytes)
		if err != nil {
			return 0, err
		}
		for _, net := range model.All() {
			pair := npu.Name + "/" + net.Name
			id := rec.Start("seda", pair, -1)
			want, err := seda.RunNetworkOptsCtx(ctx, npu, net, seda.SequentialOptions())
			d := rec.End(id)
			if err != nil {
				return 0, fmt.Errorf("seda %s: %w", pair, err)
			}
			sedaTotal += d
			out.set("seda.ms."+npu.Name+"."+net.Name, "ms", ms(d))

			root := rec.Start("net", pair, -1)
			id = rec.Start("scalesim", pair, root)
			sim, err := arr.SimulateNetwork(net)
			rec.End(id)
			if err != nil {
				return 0, fmt.Errorf("scalesim %s: %w", pair, err)
			}
			id = rec.Start("memprot", pair, root)
			prots, err := memprot.ProtectAllArenaCtx(ctx, schemes, sim, popts, arena)
			rec.End(id)
			if err != nil {
				return 0, fmt.Errorf("memprot %s: %w", pair, err)
			}
			for k, prot := range prots {
				dsim, err := dram.New(npu.DRAMConfig())
				if err != nil {
					return 0, err
				}
				dsim.SetSequentialDrain(true)
				dsim.SetArena(darena)
				got := seda.RunResult{NPU: npu.Name, Network: net.Name, Scheme: prot.Scheme}
				id = rec.Start("dram", pair+"/"+prot.Scheme.Name(), root)
				for i := range prot.Layers {
					pl := &prot.Layers[i]
					st, err := dsim.RunOverlayCtx(ctx, pl.Spine, pl.Deltas)
					if err != nil {
						return 0, fmt.Errorf("dram %s: %w", pair, err)
					}
					compute := sim.Layers[i].ComputeCycles
					got.ExecCycles += max(compute, st.Cycles)
					got.ComputeCycles += compute
					got.DataBytes += pl.Overhead.DataBytes
					got.MetaBytes += pl.Overhead.MetaBytes()
					bursts += st.Reads + st.Writes
					rowHits += st.RowHits
					rowAll += st.RowHits + st.RowMisses + st.RowEmpty
				}
				rec.End(id)
				metaBytes += got.MetaBytes
				out.Checked++
				if w := want[k]; w.Scheme != got.Scheme || w.ExecCycles != got.ExecCycles || w.ComputeCycles != got.ComputeCycles ||
					w.DataBytes != got.DataBytes || w.MetaBytes != got.MetaBytes {
					out.Problems = append(out.Problems, fmt.Sprintf("%s %s: composed layers give exec %d data %d meta %d, seda gives exec %d data %d meta %d",
						pair, got.Scheme.Name(), got.ExecCycles, got.DataBytes, got.MetaBytes, w.ExecCycles, w.DataBytes, w.MetaBytes))
				}
			}
			arena.Release(prots)
			tracedTotal += rec.End(root)
			for i := range sim.Layers {
				accesses += uint64(len(sim.Layers[i].Trace.Accesses))
			}
		}
	}

	self := span.SelfByName(rec.Spans())
	layers := self["scalesim"] + self["memprot"] + self["dram"]
	out.set("seda.ms", "ms", ms(sedaTotal))
	out.set("seda.overhead_ms", "ms", ms(sedaTotal-layers))
	out.set("scalesim.ms", "ms", ms(self["scalesim"]))
	out.set("scalesim.accesses", "count", float64(accesses))
	out.set("memprot.ms", "ms", ms(self["memprot"]))
	out.set("memprot.meta_mb", "MB", float64(metaBytes)/(1<<20))
	searches := blk.Hits() + blk.Misses()
	out.set("authblock.searches", "count", float64(searches))
	out.set("authblock.hit_ratio", "ratio", ratio(float64(blk.Hits()), float64(searches)))
	out.set("dram.ms", "ms", ms(self["dram"]))
	out.set("dram.bursts", "count", float64(bursts))
	out.set("dram.ns_per_burst", "ns", ratio(float64(self["dram"].Nanoseconds()), float64(bursts)))
	out.set("dram.row_hit_rate", "ratio", ratio(float64(rowHits), float64(rowAll)))
	out.set("trace.overhead_pct", "%", 100*(tracedTotal-sedaTotal).Seconds()/sedaTotal.Seconds())
	out.set("trace.layer_coverage", "ratio", ratio(layers.Seconds(), tracedTotal.Seconds()))
	if cov := layers.Seconds() / tracedTotal.Seconds(); cov < 0.95 {
		out.Problems = append(out.Problems, fmt.Sprintf("layer self times cover %.1f%% of the traced suite, want at least 95%%", 100*cov))
	}
	return sedaTotal, nil
}

// parallel runs both suites the way seda-sweep does, on every CPU, and
// compares the wall time with seq, the same work on one CPU.
func parallel(ctx context.Context, rec *span.Recorder, out *output, seq time.Duration) error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(1)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	id := rec.Start("seda.parallel", fmt.Sprintf("GOMAXPROCS=%d", n), -1)
	for _, npu := range seda.NPUPresets() {
		if _, err := seda.RunSuiteOptsCtx(ctx, npu, model.All(), seda.DefaultSuiteOptions()); err != nil {
			return err
		}
	}
	wall := rec.End(id)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	out.set("seda.parallel_speedup", "x", seq.Seconds()/wall.Seconds())
	out.set("seda.cpu_util", "ratio", (cpu1-cpu0).Seconds()/(wall.Seconds()*float64(n)))
	return nil
}

// cpuTime is the CPU time (user + system) this process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// attribute times the protection walk of each protected scheme on its
// own. The suite walks all six schemes in one pass, so these solo walks
// say which scheme the shared walk's time goes to; they overlap in the
// work they repeat and do not add up to memprot.ms.
func attribute(ctx context.Context, rec *span.Recorder, out *output) error {
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = memprot.NewOptBlkCache()
	arena := memprot.NewArena()
	solo := make(map[string]time.Duration)
	for _, npu := range seda.NPUPresets() {
		arr, err := scalesim.New(npu.ArrayRows, npu.ArrayCols, npu.SRAMBytes)
		if err != nil {
			return err
		}
		for _, net := range model.All() {
			sim, err := arr.SimulateNetwork(net)
			if err != nil {
				return err
			}
			for _, s := range seda.Schemes() {
				if s.Kind == memprot.Baseline {
					continue
				}
				name := strings.ToLower(strings.TrimSuffix(strings.ReplaceAll(s.Name(), "-", ""), "B"))
				id := rec.Start("memprot.solo", name+" "+npu.Name+"/"+net.Name, -1)
				prots, err := memprot.ProtectAllArenaCtx(ctx, []memprot.Scheme{s}, sim, popts, arena)
				solo[name] += rec.End(id)
				if err != nil {
					return err
				}
				arena.Release(prots)
			}
		}
	}
	for name, d := range solo {
		out.set("memprot."+name+".ms", "ms", ms(d))
	}
	return nil
}

// replayExplore evaluates each explore request the way /v1/explore does
// (edge base, SeDA scheme) in three timed calls: explore.Calibrate,
// explore.Run without confirmation (calibration, surrogate pass and
// pruning; the surrogate pass has no entry point of its own), and the
// cycle-accurate suite that confirms the point.
func replayExplore(ctx context.Context, rec *span.Recorder, out *output, qs []exploreQuery) error {
	if len(qs) == 0 {
		return fmt.Errorf("no explore requests to replay")
	}
	var cal, run, confirm time.Duration
	for _, q := range qs {
		spec, err := explore.ParseSpec(q.Spec)
		if err != nil {
			return err
		}
		net := model.ByName(q.Workload)
		if net == nil {
			return fmt.Errorf("unknown workload %q", q.Workload)
		}
		nets := []*model.Network{net}
		detail := q.Spec + " " + q.Workload

		id := rec.Start("explore.calibrate", detail, -1)
		_, err = explore.Calibrate(ctx, seda.NPUPresets(), nets, memprot.SchemeSeDA)
		cal += rec.End(id)
		if err != nil {
			return err
		}
		id = rec.Start("explore.run", detail, -1)
		res, err := explore.Run(ctx, spec, seda.EdgeNPU(), explore.Options{Workloads: nets, Scheme: memprot.SchemeSeDA, SkipConfirm: true})
		run += rec.End(id)
		if err != nil {
			return err
		}
		if len(res.Points) != 1 {
			return fmt.Errorf("explore %s: %d points, want 1", detail, len(res.Points))
		}
		id = rec.Start("explore.confirm", detail, -1)
		suite, err := seda.RunSuiteOptsCtx(ctx, res.Points[0].Config, nets, seda.SequentialOptions())
		confirm += rec.End(id)
		if err != nil {
			return err
		}
		row, err := seda.SchemeRow(suite.Rows[net.Name], memprot.SchemeSeDA)
		if err != nil {
			return err
		}
		out.ExploreExec = append(out.ExploreExec, row.ExecCycles)
	}
	n := float64(len(qs))
	out.set("explore.calibrate_ms", "ms", ms(cal)/n)
	out.set("explore.run_ms", "ms", ms(run)/n)
	out.set("explore.confirm_ms", "ms", ms(confirm)/n)
	return nil
}
