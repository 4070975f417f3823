// Package summarycache is a from-scratch Go reproduction of Fan, Cao,
// Almeida and Broder, "Summary Cache: A Scalable Wide-Area Web Cache
// Sharing Protocol" (SIGCOMM 1998 / IEEE ToN 8(3), 2000).
//
// This package holds no code. The library lives under internal/ as one
// package per subsystem, and the commands (cmd/) and examples
// (examples/) import the packages they use:
//
//   - internal/hashing — the paper's MD5 hash-group derivation
//   - internal/bloom — Bloom filters, counting Bloom filters, and the
//     §V-C analysis (Figure 4)
//   - internal/lru — the byte-budget proxy document cache
//   - internal/icp — ICP v2 wire protocol + the ICP_OP_DIRUPDATE extension
//   - internal/core — the summary-cache protocol engine (Directory, and
//     Node, which keeps each registered peer's summary replica on its
//     peer record)
//   - internal/httpproxy — a caching forward proxy with no-ICP / ICP /
//     SC-ICP cooperation, and its admin plane (AdminHandler)
//   - internal/persist — warm restarts: cache and replica snapshots plus
//     a journal of cache changes (the directory is rebuilt from the cache)
//   - internal/faultnet — deterministic fault injection on the ICP and
//     HTTP paths
//   - internal/obs, internal/tracing, internal/perfwatch — metrics and
//     the admin endpoints, request traces, and per-stage latency
//     histograms
//   - internal/origin, internal/bench — the Wisconsin-benchmark-style
//     networked evaluation harness (Tables II, IV, V)
//   - internal/trace, internal/tracegen, internal/stats — workload
//     substrate (the paper's proprietary traces are synthesized; see
//     DESIGN.md §4)
//   - internal/sim, internal/experiments — the trace-driven simulator and
//     per-figure experiment drivers (Figures 1–2, 5–8, Tables I, III)
//   - internal/analysis — the project's static analyzer, run by
//     cmd/sclint
//
// The benchmarks in internal/paperbench regenerate every table and
// figure of the paper's evaluation; EXPERIMENTS.md records
// measured-vs-published values. Start with examples/quickstart.
//
// The tree is kept clean under the project's own analyzer (see
// internal/analysis and README §Static analysis); CI enforces it, and
// the generate directive below reruns the gate locally:
//
//go:generate go run ./cmd/sclint ./...
package summarycache
