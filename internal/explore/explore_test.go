package explore

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/rescache"
	"repro/seda"
)

func nets(t *testing.T, names ...string) []*model.Network {
	t.Helper()
	out := make([]*model.Network, len(names))
	for i, n := range names {
		out[i] = model.ByName(n)
		if out[i] == nil {
			t.Fatalf("unknown workload %q", n)
		}
	}
	return out
}

func mustSpec(t *testing.T, s string) *Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestExploreRetainsTrueFrontier is the engine's soundness check: on a
// grid small enough to sweep cycle-accurately in full, the pruned +
// confirmed frontier must equal the frontier an exhaustive
// cycle-accurate sweep reports. This is the property that makes
// surrogate pruning admissible rather than merely plausible.
func TestExploreRetainsTrueFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cycle-accurate grid in -short mode")
	}
	workloads := nets(t, "let", "ncf")
	spec := mustSpec(t, "rows=16|32|64,sram=120K|480K,channels=2|4")
	res, err := Run(context.Background(), spec, seda.EdgeNPU(), Options{
		Workloads: workloads,
		Scheme:    memprot.SchemeSeDA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	t.Logf("grid=%d confirmed=%d frontier=%d margin=%.3f calErr=%.4f",
		len(res.Points), res.Confirmed(), len(res.Frontier),
		res.Margin, res.Calibration.MaxRelErr)

	// Exhaustive ground truth: evaluate every valid point for real.
	cost := make([]float64, len(res.Points))
	cycles := make([]float64, len(res.Points))
	for i := range res.Points {
		suite, err := seda.RunSuiteOptsCtx(context.Background(), res.Points[i].Config, workloads, seda.DefaultSuiteOptions())
		if err != nil {
			t.Fatal(err)
		}
		var exec uint64
		for _, net := range workloads {
			row, err := seda.SchemeRow(suite.Rows[net.Name], memprot.SchemeSeDA)
			if err != nil {
				t.Fatal(err)
			}
			exec += row.ExecCycles
		}
		cost[i] = res.Points[i].Cost
		cycles[i] = float64(exec)
		// Confirmed points must match the exhaustive measurement exactly:
		// confirmation goes through the same deterministic pipeline.
		if res.Points[i].Confirmed && res.Points[i].ExecCycles != exec {
			t.Errorf("%s: confirmed %d cycles, exhaustive %d", res.Points[i].Config.Name, res.Points[i].ExecCycles, exec)
		}
	}
	want := map[string]bool{}
	for _, i := range frontier(cost, cycles) {
		want[res.Points[i].Config.Name] = true
	}
	got := map[string]bool{}
	for _, i := range res.Frontier {
		got[res.Points[i].Config.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("true frontier point %s missing from explore frontier", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("explore frontier reports %s, which the exhaustive sweep dominates", name)
		}
	}
}

// execCycles measures one (config, workload) under one scheme with a
// draining seda walk, summing max(compute, drained DRAM cycles) over
// the layers as a RunNetworkOptsCtx row does, without the five other schemes a suite
// runs beside it.
func execCycles(ctx context.Context, cfg seda.NPUConfig, net *model.Network, scheme memprot.Scheme) (float64, error) {
	var exec uint64
	err := seda.WalkSchemeCtx(ctx, cfg, net, scheme, true, func(l seda.Layer) {
		exec += max(l.Sim.ComputeCycles, l.DRAMCycles)
	})
	return float64(exec), err
}

// TestExploreLowerBoundHolds checks the premise the pruning rests on
// over serve-cold's full grid (rows x SRAM x channels x bandwidth over
// edge, 180 geometries), for each of its six workloads with SeDA:
// every point's exact cycles, from an exhaustive cycle-accurate sweep,
// must be at or above the surrogate's lower bound, and the confirmed
// frontier must equal the exhaustive one. The walk runs over the
// exhaustive values; one workload also runs the real confirmation, which
// must measure the same points and report the same frontier.
func TestExploreLowerBoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cycle-accurate 180-point grid in -short mode")
	}
	ctx := context.Background()
	spec := mustSpec(t, "rows=16|24|32|40|48|64,sram=256K|384K|480K|640K|1M,channels=2|4,bw=5e9|10e9|20e9")
	workloads := nets(t, "rest", "mob", "algo", "goo", "trf", "yolo")
	cfgs := spec.Points(seda.EdgeNPU())
	if len(cfgs) != 180 {
		t.Fatalf("grid has %d points, want 180", len(cfgs))
	}

	// exact[w][i]: workload w's execution cycles at point i, one
	// goroutine per workload.
	exact := make([][]float64, len(workloads))
	errs := make([]error, len(workloads))
	var wg sync.WaitGroup
	for w, net := range workloads {
		exact[w] = make([]float64, len(cfgs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cfg := range cfgs {
				if exact[w][i], errs[w] = execCycles(ctx, cfg, net, memprot.SchemeSeDA); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	// The single-scheme measurement is the pipeline's SeDA row.
	for _, i := range []int{0, len(cfgs) - 1} {
		suite, err := seda.RunSuiteOptsCtx(ctx, cfgs[i], workloads, seda.DefaultSuiteOptions())
		if err != nil {
			t.Fatal(err)
		}
		for w, net := range workloads {
			row, err := seda.SchemeRow(suite.Rows[net.Name], memprot.SchemeSeDA)
			if err != nil {
				t.Fatal(err)
			}
			if float64(row.ExecCycles) != exact[w][i] {
				t.Fatalf("%s/%s: pipeline %d cycles, single-scheme %.0f", net.Name, cfgs[i].Name, row.ExecCycles, exact[w][i])
			}
		}
	}

	for w, net := range workloads {
		opts := Options{Workloads: []*model.Network{net}, Scheme: memprot.SchemeSeDA, SkipConfirm: net.Name != "algo"}
		res, err := Run(ctx, spec, seda.EdgeNPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		priced := &Result{Points: make([]Point, len(cfgs))}
		cost := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			priced.Points[i] = Point{Config: cfg}
			cost[i] = CostProxy(cfg)
		}
		lower, err := surrogatePass(ctx, priced, opts, res.Calibration.Model, res.Margin)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if exact[w][i] < lower[i] {
				t.Errorf("%s/%s: exact %.0f cycles below lower bound %.0f", net.Name, cfg.Name, exact[w][i], lower[i])
			}
		}
		confirmed, got := walk(t, cost, lower, exact[w])
		if want := exactFrontier(cost, exact[w]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: confirmed frontier %v, exhaustive %v", net.Name, got, want)
		}
		t.Logf("%s: confirmed=%d frontier=%d margin=%.3f", net.Name, len(confirmed), len(got), res.Margin)
		if opts.SkipConfirm {
			continue
		}
		var ran []int
		for i, p := range res.Points {
			if p.Confirmed {
				ran = append(ran, i)
				if float64(p.ExecCycles) != exact[w][i] {
					t.Errorf("%s/%s: confirmed %d cycles, exhaustive %.0f", net.Name, p.Config.Name, p.ExecCycles, exact[w][i])
				}
			}
		}
		front := slices.Clone(res.Frontier)
		slices.Sort(front)
		if !reflect.DeepEqual(ran, confirmed) || !reflect.DeepEqual(front, got) {
			t.Errorf("%s: Run confirmed %v frontier %v, the walk %v and %v", net.Name, ran, res.Frontier, confirmed, got)
		}
	}
}

// TestExplorePrunesLargeGrid pins the efficiency half of the design:
// on a 100-point grid, the confirmation walk must rule out at least
// 75% of the points, so only the plausible-frontier band pays for
// cycle-accurate evaluation. The grid
// sweeps axes the workload actually responds to (array scale, memory
// channels, memory bandwidth); grids over insensitive axes degenerate
// into exact plateaus that no sound pruning can separate. It also pins
// that a rerun against the same cache confirms entirely from cached
// entries.
func TestExplorePrunesLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("100-point grid in -short mode")
	}
	cache, err := rescache.New(rescache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, "rows=16:256:2x,channels=1|2|4|8,bw=2.5G:40G:2x")
	if n := spec.NumPoints(); n < 100 {
		t.Fatalf("grid has %d points, want >= 100", n)
	}
	opts := Options{
		Workloads: nets(t, "let"),
		Scheme:    memprot.SchemeSeDA,
		Cache:     cache,
	}
	res, err := Run(context.Background(), spec, seda.EdgeNPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("grid=%d confirmed=%d frontier=%d margin=%.3f",
		len(res.Points)+res.Invalid, res.Confirmed(), len(res.Frontier), res.Margin)
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	total := len(res.Points) + res.Invalid
	if lim := total / 4; res.Confirmed() > lim {
		t.Errorf("confirmed %d of %d points cycle-accurately, want <= %d (25%%)", res.Confirmed(), total, lim)
	}
	for _, i := range res.Frontier {
		if !res.Points[i].Confirmed {
			t.Errorf("frontier point %s is unconfirmed", res.Points[i].Config.Name)
		}
	}

	// Rerun against the warm cache: every confirmation must hit.
	before := cache.Stats().Computes
	res2, err := Run(context.Background(), spec, seda.EdgeNPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats().Computes; after != before {
		t.Errorf("warm rerun computed %d fresh evaluations, want 0", after-before)
	}
	if len(res2.Frontier) != len(res.Frontier) {
		t.Fatalf("warm rerun frontier size %d != %d", len(res2.Frontier), len(res.Frontier))
	}
	for k := range res.Frontier {
		if res.Points[res.Frontier[k]].Config.Name != res2.Points[res2.Frontier[k]].Config.Name {
			t.Errorf("warm rerun frontier diverged at %d", k)
		}
	}
}

// TestConfirmationCachesItsSchemeSubset: on an empty cache, each
// confirmation computes one entry per workload, under the {scheme,
// Baseline} subset's key ({Baseline} alone when Baseline is explored),
// so a six-scheme sweep of a confirmed point finds nothing cached and
// computes afresh, and its row of the explored scheme carries the
// confirmed cycles.
func TestConfirmationCachesItsSchemeSubset(t *testing.T) {
	for _, scheme := range []memprot.Scheme{memprot.SchemeSeDA, memprot.SchemeBaseline} {
		cache, err := rescache.New(rescache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ws := nets(t, "let", "ncf")
		res, err := Run(context.Background(), mustSpec(t, "rows=16|32"), seda.EdgeNPU(),
			Options{Workloads: ws, Scheme: scheme, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cache.Stats().Computes, uint64(res.Confirmed()*len(ws)); got != want {
			t.Errorf("%s: %d computes for %d confirmations of %d workloads", scheme.Name(), got, res.Confirmed(), len(ws))
		}
		for _, p := range res.Points {
			if !p.Confirmed {
				continue
			}
			before := cache.Stats().Computes
			suite, err := seda.RunSuiteCachedCtx(context.Background(), cache, p.Config, ws, seda.Schemes())
			if err != nil {
				t.Fatal(err)
			}
			if got := cache.Stats().Computes - before; got != uint64(len(ws)) {
				t.Errorf("%s: six-scheme sweep of confirmed %s computed %d entries, want %d", scheme.Name(), p.Config.Name, got, len(ws))
			}
			var exec uint64
			for _, n := range ws {
				row, err := seda.SchemeRow(suite.Rows[n.Name], scheme)
				if err != nil {
					t.Fatal(err)
				}
				exec += row.ExecCycles
			}
			if exec != p.ExecCycles {
				t.Errorf("%s: %s confirmed %d exec cycles, six-scheme rows sum to %d", scheme.Name(), p.Config.Name, p.ExecCycles, exec)
			}
		}
	}
}

// TestExploreInvalidPointsAreCounted: a cross product may build
// impossible geometries (row smaller than burst); they are dropped and
// counted, and the rest of the grid still explores.
func TestExploreInvalidPointsAreCounted(t *testing.T) {
	spec := mustSpec(t, "rowbytes=128|2K,burstbytes=64|512")
	res, err := Run(context.Background(), spec, seda.EdgeNPU(), Options{
		Workloads:   nets(t, "let"),
		Scheme:      memprot.SchemeSeDA,
		SkipConfirm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// rowbytes=128 with burstbytes=512 is the one impossible combination.
	if res.Invalid != 1 {
		t.Errorf("invalid = %d, want 1", res.Invalid)
	}
	if len(res.Points) != 3 {
		t.Errorf("explored %d points, want 3", len(res.Points))
	}
}

func TestExploreRejectsOversizedGrid(t *testing.T) {
	spec := mustSpec(t, "rows=16|32|64,channels=2|4")
	_, err := Run(context.Background(), spec, seda.EdgeNPU(), Options{
		Workloads: nets(t, "let"),
		Scheme:    memprot.SchemeSeDA,
		MaxPoints: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "limit 4") {
		t.Fatalf("err = %v, want grid-size rejection", err)
	}
}

// TestExploreRejectsOverflowingGrid: a grid whose point count
// overflows int must still be caught by the MaxPoints guard (the
// product saturates instead of wrapping to something small), before
// any attempt to materialize it.
func TestExploreRejectsOverflowingGrid(t *testing.T) {
	spec := mustSpec(t, "rows=1:4096:+1,cols=1:4096:+1,sram=1:4096:+1,channels=1:4096:+1,banks=1:4096:+1,window=1:4096:+1")
	_, err := Run(context.Background(), spec, seda.EdgeNPU(), Options{
		Workloads: nets(t, "let"),
		Scheme:    memprot.SchemeSeDA,
	})
	if err == nil || !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want ErrUsage grid-size rejection", err)
	}
}

func TestExploreNoWorkloads(t *testing.T) {
	spec := mustSpec(t, "channels=2|4")
	if _, err := Run(context.Background(), spec, seda.EdgeNPU(), Options{Scheme: memprot.SchemeSeDA}); err == nil {
		t.Fatal("want error for empty workload list")
	}
}

// TestExploreCancellation: a cancelled context aborts the exploration
// with ctx.Err() instead of a partial result.
func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := mustSpec(t, "channels=2|4")
	_, err := Run(ctx, spec, seda.EdgeNPU(), Options{
		Workloads: nets(t, "let"),
		Scheme:    memprot.SchemeSeDA,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExploreOutputDeterminism: two identical explorations serialize
// to byte-identical JSON and CSV — the property the serving layer's
// strong ETag asserts.
func TestExploreOutputDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full explorations in -short mode")
	}
	spec := mustSpec(t, "rows=16|32,channels=2|4")
	opts := Options{
		Workloads: nets(t, "let"),
		Scheme:    memprot.SchemeSeDA,
	}
	var docs [2]bytes.Buffer
	var csvs [2]bytes.Buffer
	for k := 0; k < 2; k++ {
		res, err := Run(context.Background(), spec, seda.EdgeNPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&docs[k]); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&csvs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Error("JSON output differs between identical explorations")
	}
	if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
		t.Error("CSV output differs between identical explorations")
	}
	if !bytes.Contains(docs[0].Bytes(), []byte(`"surrogate_version": "`+SurrogateVersion+`"`)) {
		t.Error("JSON lacks surrogate_version")
	}
}
