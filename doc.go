// Package mcdla is a system-level simulator reproducing "Beyond the Memory
// Wall: A Case for Memory-centric HPC System for Deep Learning" (Kwon & Rhu,
// MICRO-51, 2018).
//
// The library lives under internal/: the dnn package models the Table III
// workloads plus an attention-era transformer family (BERT-Large-class
// encoder, GPT-2-class decoder, per-head GEMM attention whose score tensors
// grow with seqlen²), accel the Table II PE-array device, topo/collective
// the device-side interconnects and ring collectives, memnode/vmem/cudart
// the memory-node architecture and virtualization runtime, train the
// parallelization strategies and the fp16/mixed/fp32 precision memory
// model, and core assembles the six evaluated system design points and
// simulates full training iterations. The scaleout
// package extends the evaluation to the §VI Figure 15 datacenter plane
// with an event-driven engine of its own: one representative device per
// system node on sim channels (chassis switch link complexes, a shared
// uplink carrying the inter-node shard rings, memory-node delivery as a
// group cap), staged hierarchical collectives, and a hybrid
// model-parallel-in-chassis × data-parallel-across-chassis strategy; the
// first-order estimator it replaced remains for comparison. The experiments
// package regenerates every table and figure of the paper's evaluation by
// submitting declarative simulation grids to the runner package — a
// worker-pool engine that fans jobs across GOMAXPROCS goroutines, memoizes
// identical (design, schedule) simulations, and streams per-job progress —
// so output stays byte-identical at every parallelism (non-core grids use
// its generic Fan primitive) — a guarantee the golden CLI fixtures under
// cmd/mcdla/testdata pin at full-command granularity, alongside the dnn
// fuzz target and the vmem/precision property tests.
//
// The cost and dse packages close the paper's economic argument: cost is a
// component-level TCO model that prices any design point (HBM vs commodity
// DIMM $/GB, boards, high-bandwidth links, the host and its DRAM) and
// composes with power's design-generic wall model into perf-per-dollar and
// perf-per-watt; dse searches the candidate space over the runner's job
// axes — grid or greedy Pareto local search under -max-cost/-max-power/
// -min-throughput constraints, with analytic bounds pruned before any
// simulation — and extracts the Pareto frontier over throughput, cost,
// energy per iteration and pool capacity. The frontier surfaces as `mcdla
// optimize` and GET /v1/optimize, every row carrying the `mcdla run` recipe
// that reproduces it.
//
// Results leave the simulator through the report package, the typed layer
// between generators and consumers: experiments build report.Report values
// (tables of cells carrying both the paper's presentation string and the
// raw datum) and pluggable renderers emit paper-style text — byte-identical
// to the golden fixtures — JSON, CSV, or markdown, selected by the CLI's
// global -format flag. The server package serves the same reports as a
// long-running HTTP API (`mcdla serve`): each experiment family is a /v1
// endpoint whose query parameters map onto runner job axes, requests share
// the engine's worker pool, and the memo cache acts as a bounded
// cross-request LRU with hit/miss accounting on /healthz.
//
// The store package makes that cache durable and shared: a
// content-addressed, disk-backed result store (global -store DIR flag)
// keyed by the canonical hash of a runner job, read through by the memo
// with singleflight dedupe, so the same job hash yields a byte-identical
// report across restarts and processes. On top of it the server exposes
// the async jobs API — POST /v1/jobs returns a content-addressed job id
// to poll, stream (SSE progress) or fetch — with durable job records that
// survive crashes, and `mcdla serve -worker` processes drain the shared
// queue under exclusive per-job claims.
//
// The fleet package lifts the simulators to datacenter scale: an
// event-driven scheduler consumes a trace of heterogeneous training jobs
// (arrival times, batch/seqlen/precision, optional deadlines; CSV or JSON,
// fuzzed by FuzzFleetTrace) and an iso-cost cluster of DC-DLA / HC-DLA /
// MC-DLA pods, admits jobs under each pod's pooled-memory capacity — so
// memory-centric pods pack footprints the device-centric pods must refuse
// outright — and advances a virtual clock on memoized per-job throughputs,
// reporting fleet throughput, queueing delay, utilization, deadline misses
// and TCO-normalized jobs/day/$. It surfaces as `mcdla fleet` and GET
// /v1/fleet, with scheduler invariants (exactly-once completion, capacity
// respected at every instant, monotone clock) property-tested over seeded
// random traces.
//
// The invariants the packages promise — deterministic simulations,
// byte-stable reports, one cancellable context root, exhaustive enum
// switches, guarded float division — are mechanically enforced by the
// analysis package's mcdla-lint suite (go run ./cmd/mcdla-lint ./...),
// with //mcdlalint:allow directives as the only, always grep-able,
// suppression mechanism.
//
// The root-level benchmarks in bench_test.go expose one benchmark per
// table and figure, each reporting its headline number as a custom metric,
// plus BenchmarkRunnerFanout, BenchmarkPlaneSimulate,
// BenchmarkTransformerSimulate, BenchmarkOptimizeGrid and
// BenchmarkFleetSimulate for the engines themselves.
//
// See README.md for a tour, CLI cookbook and serve quickstart,
// ARCHITECTURE.md for the package map and layer invariants, and
// EXPERIMENTS.md for paper-vs-measured results.
package mcdla
