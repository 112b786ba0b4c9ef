package seda

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/model"
)

// BenchmarkRunSuite measures the full evaluation pipeline (13
// workloads x 6 schemes: scalesim schedule -> protection scheme ->
// DRAM timing) on both NPUs, single-threaded (GOMAXPROCS=1, so one
// workload at a time and the six scheme drains on one P) vs the
// process's GOMAXPROCS. Before/after numbers for the perf trajectory
// live in BENCH_PIPELINE.json.
//
// Run with:
//
//	go test -run xxx -bench BenchmarkRunSuite -benchtime 1x ./seda
func BenchmarkRunSuite(b *testing.B) {
	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		for _, mode := range []struct {
			name  string
			procs int
		}{
			{"gomaxprocs1", 1},
			{"default", runtime.GOMAXPROCS(0)},
		} {
			b.Run(npu.Name+"/"+mode.name, func(b *testing.B) {
				withGOMAXPROCS(mode.procs, func() {
					for i := 0; i < b.N; i++ {
						if _, err := RunSuiteOptsCtx(context.Background(), npu, model.All(), DefaultSuiteOptions()); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
