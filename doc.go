// Package repro is a from-scratch Go reproduction of "Last-Touch Correlated
// Data Streaming" (Ferdman & Falsafi, ISPASS 2007).
//
// LT-cords is an address-correlating prefetcher that predicts, at the last
// touch of an L1D cache block, the block that will replace it, and streams
// its correlation metadata (last-touch signatures) from off-chip storage into
// a small on-chip signature cache just before it is needed.
//
// The repository contains:
//
//   - internal/core: the LT-cords predictor (the paper's contribution)
//   - internal/dbcp, internal/ghb: baseline prefetchers
//   - internal/cache, internal/mem, internal/history: memory-system substrate
//   - internal/cpu, internal/bus: simplified out-of-order timing model
//   - internal/workload: synthetic workload generators standing in for the
//     paper's SPEC CPU2000 and Olden benchmarks
//   - internal/corr, internal/stats, internal/power: analysis tooling
//   - internal/runner: simulation-cell scheduler (worker pool + result cache)
//   - internal/exp: one experiment per paper figure/table, built from cells
//   - cmd/ltsim, cmd/ltexp, cmd/lttrace: command-line front ends
//   - cmd/benchdiff: benchmark-snapshot regression gate (CI)
//
// See DESIGN.md for the system inventory and the per-experiment index, and
// EXPERIMENTS.md for paper-versus-measured results.
package repro
