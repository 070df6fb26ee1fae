// Command perfbench is the repository's benchmark. It drives the simulator
// only through the public functions of its packages (tracefile, event,
// machine, telemetry, trace, workloads, traffic, harness, report, serve)
// and changes none of them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (a nested module that points back at the
// repository through a replace directive) into .bench_build and runs it.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the environment record ({"env": {...}}: nproc,
// GOMAXPROCS, CPU model, Go version, git commit and a digest of the
// sources). attempted counts operations (replays, plan jobs, traffic runs,
// HTTP jobs); failed counts those that errored, answered a non-2xx status
// or failed a correctness check.
//
// Workloads (the seed goes to workloads.Config.Seed, Harness.Seed,
// serve.Options.Seed and the traffic spec's seed; 0 keeps the built-in
// seeds):
//
//   - catalog-replay: the ten catalog apps recorded at full scale
//     (set-up), each replayed once per pass under base R-NUMA with the
//     probe off.
//   - eval-all: the `rnuma-experiments -exp all -scale 1.0` pipeline
//     (plan, prefetch on min(2, nproc) workers, figure assembly,
//     rendering).
//   - traffic-timeline: the burst-collision traffic scenario compiled
//     (set-up) and run under R-NUMA with the telemetry probe and
//     per-client attribution, rendered as timeline and client table.
//   - serve-grid: per round, a fresh set-up (em3d capture, disk store,
//     in-process serve.Server on a loopback listener, upload), one cold
//     block x threshold grid job and warm resubmissions, each followed to
//     completion over its progress stream and both reports fetched.
//
// The measured phase runs whole passes until --seconds have passed. Every
// timing is host time; counters from stats.Run are simulated events and
// repeat exactly for a fixed seed. The model is unvalidated against real
// hardware, so no accuracy figure is reported.
//
// End-to-end metrics (--trace 0): wall_s is the median pass; refs_per_s
// counts only simulations the run executed (owner claims seen by a
// harness.Store wrapper, or one-shot replays), never memo hits; setup_s
// is the median set-up repetition; alloc_mb the median heap allocated per
// pass; max_rss_mb the median per-pass peak resident set (the kernel's
// peak mark is reset before each pass; catalog-replay takes the largest
// per-app median, since one replay's peak moves with the collector's
// timing). cold_job_s is an operation on fresh state and warm_job_s the
// same operation repeated: the served grid job on an empty versus a
// filled store (serve-grid), the pipeline on an empty versus a filled
// store (eval-all), and the pass right after a set-up versus later passes
// on it (catalog-replay, traffic-timeline, which keep no store).
//
// Per-layer metrics (--trace 1) come from a separate traced run that
// records spans (name, start, end, parent, run ID) around each call into
// a layer, keeps them in memory and writes them with per-name totals and
// self times to .bench_build/traces at the end. Where a layer runs inside
// another package's call, it is timed through a public seam instead: the
// store through a harness.Store wrapper, decode by draining a
// tracefile.Reader, Machine.Run over pre-decoded streams. Every per-layer
// metric is printed on every workload; a layer the workload's path does
// not pass through reads 0. bench.trace_overhead_pct compares the traced
// pass with an untraced pass of the same work in the same run.
//
// Correctness: for seed 0 every simulation's counters and every rendered
// report are compared with digests committed in expected_seed0.json (the
// eval-all report digest is that of `rnuma-experiments -exp all -scale
// 1.0` stdout). For any other seed, seed-independent identities are
// checked instead: a replay equals a live run of the freshly built
// workload, plan results equal live runs, served reports equal an offline
// SweepGrid rendering, and the probe never changes a counter. Every seed
// also checks that repeated set-ups and passes are identical and that
// cold and warm reports are byte-equal.
package main
