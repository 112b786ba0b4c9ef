package seda

import (
	"context"
	"testing"

	"repro/internal/model"
)

// BenchmarkRunSuite measures the full evaluation pipeline (13
// workloads x 6 schemes: scalesim schedule -> protection scheme ->
// DRAM timing) on both NPUs, one workload at a time vs the default
// GOMAXPROCS workload pool. Both variants drain each workload's six
// schemes concurrently; run under GOMAXPROCS=1 for a single-threaded
// number. Before/after numbers for the perf trajectory live in
// BENCH_PIPELINE.json.
//
// Run with:
//
//	go test -run xxx -bench BenchmarkRunSuite -benchtime 1x ./seda
func BenchmarkRunSuite(b *testing.B) {
	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		for _, mode := range []struct {
			name string
			opts SuiteOptions
		}{
			{"workers1", SequentialOptions()},
			{"default", DefaultSuiteOptions()},
		} {
			b.Run(npu.Name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunSuiteOptsCtx(context.Background(), npu, model.All(), mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
