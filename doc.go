// Package repro reproduces "SeDA: Secure and Efficient DNN
// Accelerators with Hardware/Software Synergy" (DAC 2025).
//
// The public API lives in repro/seda (experiment pipeline and NPU
// configurations). The substrates are internal packages:
//
//	internal/aesx      B-AES key schedule and OTPs over crypto/aes
//	internal/xormac    truncated HMAC-SHA256 MACs, XOR-MAC aggregation, layer & model MACs
//	internal/cache     set-associative LRU metadata-cache simulator
//	internal/trace     DRAM access-trace representation
//	internal/dram      multi-channel DDR timing simulator
//	internal/model     DNN layer tables for the 13 benchmark workloads
//	internal/scalesim  systolic-array timing + tiling + trace generation
//	internal/tiling    protection-block alignment & over-fetch analysis
//	internal/authblock SecureLoop-style optBlk search
//	internal/memprot   SGX/MGX/SeDA protection schemes as trace transformers
//	internal/hwmodel   28nm T-AES vs B-AES area/power model
//	internal/attack    SECA and RePA attacks + defenses
//	internal/core      functional SeDA protection unit (Crypt+Integ engines)
//	internal/nnexec    reference executor for the benchmark DNN layers
//	internal/secinfer  end-to-end secure inference over the SeDA unit
//	internal/rescache  content-addressed result cache (LRU + disk + singleflight)
//	internal/failpoint named fault-injection sites for the chaos suites
//	internal/explore   design-space exploration (surrogate-pruned Pareto search)
//	internal/obs       stage tracing, metrics registry, structured logs, pprof
//	internal/serve     the HTTP serving stack (API, lifecycle, metrics)
//	internal/cluster   fault-tolerant routing over a fleet of serve replicas
//
// The pipeline is deterministic, so results are memoizable:
// seda.RunSuiteCachedCtx serves rows through
// internal/rescache keyed by seda.ConfigFingerprint, and the
// cmd/seda-serve HTTP server ("sweep-as-a-service") exposes the cached
// sweeps as JSON or CSV with singleflight deduplication of concurrent
// identical requests. cmd/seda-router fronts N such replicas with
// config-fingerprint-affinity routing (rendezvous hashing over the
// same cache fingerprints), health-checked failover, per-replica
// circuit breakers, budgeted retry with backoff, and graceful
// degradation from a shared disk-cache tier. The replica, the router
// and seda-sweep -explore resolve an exploration's parameters through
// the one explore.ParseRequest (workload lists through
// model.ParseList), so every front end agrees on what a request
// denotes.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; see DESIGN.md for the experiment index and
// the pipeline's execution model (zero-copy traces, one layer at a
// time — each protected and drained before the next, into one reused
// overlay — a span-queue DRAM drain, and one level of parallelism: the
// suite's workload pool), and EXPERIMENTS.md for paper-vs-measured
// numbers.
package repro
