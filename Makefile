GO ?= go

.PHONY: build test race fuzz bench bench-smoke bench-check warm-check serve-check fault-check fmt experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package with short-mode workloads
# (-short skips the long runs, among them the pinned full -exp all run;
# the plain `test` target covers those).
race:
	$(GO) test -race -short ./...

# Fuzzing pass (CI runs it in its own job): each Fuzz target for 20 s
# beyond its seed corpus, which plain `go test` already runs. The go
# command fuzzes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMaterializeRoundTrip$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzOpenStore$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzInterleaveN$$' -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzAccessBatchHitsEquivalence$$' -fuzztime 20s ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeMatchesReference$$' -fuzztime 20s ./internal/corr

# Core hot-path benchmarks (per-reference cost + steady-state allocs)
# plus the ltexp-shaped whole-run wall-time entry, snapshotted to
# BENCH_core.json so PRs can track the perf trajectory.
BENCH_RE = ^(BenchmarkCoverage|BenchmarkTimingModel|BenchmarkTraceGen|BenchmarkTraceReplay|BenchmarkExpAll)$$

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' \
		-benchmem -count 1 -json . > BENCH_core.json
	@echo "wrote BENCH_core.json ($$(wc -c < BENCH_core.json) bytes)"

# Benchmark smoke pass: every benchmark once (CI runs this).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Benchmark regression gate (CI runs this after the smoke pass):
# re-measure the pinned benchmarks and diff against the committed
# BENCH_core.json — >10% ns/op regression fails the build; the
# zero-alloc benchmarks (Coverage, TimingModel, TraceGen, TraceReplay)
# must stay at 0 allocs/op with B/op pinned to only go down, and the
# ExpAll whole-run wall-time entry may not grow its allocs or bytes
# beyond the same budget. Three counts, best-of-N comparison (see
# cmd/benchdiff), to damp shared-runner noise. Tier-1's TestZeroAllocPins
# holds the allocation pins, with BenchmarkCoverageSharded, without a
# snapshot.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' \
		-benchmem -count 3 -json . > BENCH_new.json
	$(GO) run ./cmd/benchdiff -old BENCH_core.json -new BENCH_new.json -max-regress 10
	@rm -f BENCH_new.json

# The three behaviour gates (CI runs them in their own job), one harness:
# cmd/gatecheck <gate>.
#
# Persistent-cache gate: every experiment twice against a fresh cache
# dir — the warm pass must execute zero simulations and render
# byte-identical reports (DESIGN.md §12).
warm-check:
	$(GO) run ./cmd/gatecheck warm

# Daemon gate: end-to-end smoke over the real ltexpd binary — run a job,
# diff the /report bytes against a local ltexp run, and prove a
# resubmission executes zero simulations on the shared scheduler
# (DESIGN.md §14).
serve-check:
	$(GO) run ./cmd/gatecheck serve

# Fault-injection gate: experiment runs under scripted disk-fault
# schedules (ENOSPC, EIO, torn writes, rename/fsync failures, dead disk)
# and over a bit-rotted cached trace store must stay byte-identical to a
# no-cache reference, a kill -9 mid-write must leave a self-repairing
# store, and an in-process daemon must serve jobs (degraded, then
# recovered) over a fully dead cache dir (DESIGN.md §15).
fault-check:
	$(GO) run ./cmd/gatecheck fault

fmt:
	gofmt -w .

# Regenerate EXPERIMENTS.md, the one pin of what the simulator prints,
# from a serial run. Tier-1's TestCellCacheFullAllRun must reproduce its
# fenced block at -parallel 8, and TestPinnedCacheVersion pins the
# block's sha256 with the cache version (DESIGN.md §12).
experiments:
	$(GO) run ./cmd/ltexp -exp all -q -parallel 1 > EXPERIMENTS.tmp && \
		{ printf '# EXPERIMENTS — measured results (small scale, seed 1)\n\nRegenerated by `make experiments` (`ltexp -exp all -q -parallel 1`): the\nserial reference that tier-1 pins. `TestCellCacheFullAllRun` must\nreproduce the block below byte for byte with 8 cell workers. Use\n`-json` for structured output and `-cache-dir D` to persist results so\na repeat run executes zero simulations. Paper-versus-measured\ncommentary lives in the report notes.\n\n```\n'; cat EXPERIMENTS.tmp; printf '```\n'; } > EXPERIMENTS.md && \
		rm EXPERIMENTS.tmp
