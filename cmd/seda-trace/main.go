// Command seda-trace inspects the DRAM traces the pipeline produces:
// per-layer schedule and traffic breakdown for a (workload, NPU,
// scheme) triple, optionally dumping raw accesses — the equivalent of
// SCALE-Sim's trace files plus the protection scheme's metadata
// accesses.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/seda"
)

func main() {
	workload := flag.String("workload", "let", "workload short name ("+strings.Join(model.Names(), ", ")+")")
	npuName := flag.String("npu", "edge", "npu config: server or edge")
	schemeName := flag.String("scheme", "SeDA", "protection scheme: Baseline, SGX-64B, SGX-512B, MGX-64B, MGX-512B, SeDA")
	dump := flag.Int("dump", 0, "dump the first N raw accesses per layer")
	flag.Parse()

	net := model.ByName(*workload)
	if net == nil {
		fatal(fmt.Errorf("unknown workload %q (known: %s)",
			*workload, strings.Join(model.Names(), ", ")))
	}
	npu, err := seda.NPUByName(*npuName)
	if err != nil {
		fatal(err)
	}
	scheme, err := seda.SchemeByName(*schemeName)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s on %s NPU under %s\n\n", net.Full, npu.Name, scheme.Name())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\ttiles\tgroups\tdata(KB)\tmac(KB)\tvn(KB)\ttree(KB)\toverfetch(KB)\toptBlk")
	// A layer's protected stream lives only during its callback, so the
	// -dump lines are buffered there and printed after the table. The
	// dump walks the spine+overlay merge in place — the flat trace is
	// never materialized, matching what the DRAM model consumes — and
	// no-ops past the limit, which keeps the anchor-merge semantics in
	// one place.
	var dumps strings.Builder
	i := 0
	err = seda.WalkSchemeCtx(context.Background(), npu, net, scheme, false, func(l seda.Layer) {
		lr, pl := l.Sim, l.Prot
		o := pl.Overhead
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%s\n",
			lr.Layer.Name, lr.Tiling.RowTiles, lr.Tiling.Groups,
			kb(o.DataBytes), kb(o.MACBytes), kb(o.VNBytes), kb(o.TreeBytes),
			kb(o.OverFetchBytes), optBlkStr(o.OptBlk))
		if *dump > 0 {
			fmt.Fprintf(&dumps, "\nlayer %d (%s): first %d accesses (%d data + %d overlay total)\n",
				i, lr.Layer.Name, *dump, pl.Spine.Len(), pl.Deltas.Len())
			printed := 0
			trace.ForEachMerged(pl.Spine, pl.Deltas, func(a *trace.Access) {
				if printed >= *dump {
					return
				}
				fmt.Fprintf(&dumps, "  cycle=%-10d %s %-9s addr=%#011x bytes=%d\n",
					a.Cycle, a.Kind, a.Class, a.Addr, a.Bytes)
				printed++
			})
		}
		i++
	})
	if err != nil {
		fatal(err)
	}
	w.Flush() //nolint:errcheck
	fmt.Print(dumps.String())
}

func kb(b uint64) float64 { return float64(b) / 1024 }

func optBlkStr(b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%dB", b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seda-trace:", err)
	os.Exit(1)
}
