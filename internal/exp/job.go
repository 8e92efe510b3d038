package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cachedir"
	"repro/internal/runner"
	"repro/internal/workload"
)

// JobSpec describes one experiment job: the unit of work both cmd/ltexp
// (one job per invocation) and the ltexpd daemon (many jobs against one
// shared scheduler) submit through RunJob. The JSON tags are the
// daemon's submission wire format. Cache and Progress are environment,
// not identity — they ride along untagged so a spec can be decoded
// straight off an HTTP request and then outfitted by the server.
type JobSpec struct {
	// Experiments lists experiment ids; "all" (or an empty list) expands
	// to every registered id.
	Experiments []string `json:"experiments,omitempty"`
	// Scale is the workload scale name: small|medium|large ("" = small).
	Scale string `json:"scale,omitempty"`
	// Seed is the workload seed (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Benchmarks restricts runs to the named presets (empty = each
	// experiment's default set).
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Cache, when non-nil, is the persistent cell/trace cache the job's
	// cells read and write (the daemon shares one across all jobs).
	Cache *cachedir.Dir `json:"-"`
	// Progress, when non-nil, receives one line per completed step —
	// cmd/ltexp points it at stderr, the daemon fans it out to SSE
	// subscribers.
	Progress io.Writer `json:"-"`
}

// Normalize resolves defaults and validates the spec: the scale name
// parses, every experiment id is registered (with "all"/empty expanded
// to the full list), every benchmark name is a preset, and Seed 0
// becomes 1. The returned spec is fully explicit — the daemon
// normalizes at submission time so a bad request fails with a 400
// before it ever queues, and an explicit spec is what job listings
// display.
func (js JobSpec) Normalize() (JobSpec, error) {
	out := js
	if out.Scale == "" {
		out.Scale = workload.Small.String()
	}
	if _, err := workload.ParseScale(out.Scale); err != nil {
		return JobSpec{}, err
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	ids := out.Experiments
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	var expanded []string
	for _, id := range ids {
		if id == "all" {
			expanded = append(expanded, IDs()...)
			continue
		}
		if _, ok := registry[id]; !ok {
			return JobSpec{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
		}
		expanded = append(expanded, id)
	}
	out.Experiments = expanded
	for _, name := range out.Benchmarks {
		if _, ok := workload.ByName(name); !ok {
			return JobSpec{}, fmt.Errorf("exp: unknown benchmark %q", name)
		}
	}
	return out, nil
}

// JobResult is a completed job: the reports in experiment order plus the
// job-scoped scheduler and cache counter deltas (on a shared daemon
// scheduler the absolute counters span every job ever run, so per-job
// accounting — "this submission executed zero simulations" — needs the
// before/after difference). Stats counts the result cells on the shared
// scheduler plus the "mat" cells of the job's trace memo; like the
// former, the latter is shared with the jobs running beside it.
type JobResult struct {
	Spec        JobSpec            `json:"spec"`
	Parallelism int                `json:"parallelism"`
	Reports     []*Report          `json:"reports"`
	Stats       runner.Stats       `json:"cells"`
	Cache       *cachedir.Counters `json:"cache,omitempty"`

	cacheMode, cacheRoot string
}

// RunJob executes one job spec against the shared scheduler: the
// experiment-dispatch loop cmd/ltexp and the daemon share. The spec is
// normalized first (so RunJob accepts raw submissions too), every
// experiment runs in order with ctx threaded into its cells
// (cancellation aborts queued cells promptly, see runner.Map), and
// the result carries the reports plus this job's scheduler/cache
// counter deltas. The caller owns wiring sched to spec.Cache
// (Scheduler.SetStore) — both cmd/ltexp and the daemon do it once at
// startup. The job holds its traces in the trace memo of the jobs
// running on sched (traceMemo), so a trace is freed when the last job
// using it ends; sched keeps only results.
func RunJob(ctx context.Context, spec JobSpec, sched *runner.Scheduler) (*JobResult, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	sc, err := workload.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Context:    ctx,
		Scale:      sc,
		Seed:       spec.Seed,
		Benchmarks: spec.Benchmarks,
		Runner:     sched,
		Cache:      spec.Cache,
		Progress:   spec.Progress,
		traces:     leaseTraces(sched, spec.Cache),
	}
	defer opts.traces.release()
	before, tracesBefore := sched.Stats(), opts.traces.stats()
	cacheBefore := spec.Cache.Counters()
	res := &JobResult{
		Spec:        spec,
		Parallelism: sched.Parallelism(),
		cacheMode:   spec.Cache.Mode().String(),
		cacheRoot:   spec.Cache.Root(),
	}
	for _, id := range spec.Experiments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := Run(id, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		res.Reports = append(res.Reports, rep)
	}
	res.Stats = sched.Stats().Sub(before).Add(opts.traces.stats().Sub(tracesBefore))
	if spec.Cache != nil {
		cc := countersDelta(spec.Cache.Counters(), cacheBefore)
		res.Cache = &cc
	}
	return res, nil
}

// countersDelta subtracts two cache counter snapshots fieldwise.
func countersDelta(after, before cachedir.Counters) cachedir.Counters {
	return cachedir.Counters{
		Hits:            after.Hits - before.Hits,
		Misses:          after.Misses - before.Misses,
		Puts:            after.Puts - before.Puts,
		BadEntries:      after.BadEntries - before.BadEntries,
		TraceHits:       after.TraceHits - before.TraceHits,
		TraceMisses:     after.TraceMisses - before.TraceMisses,
		TracePuts:       after.TracePuts - before.TracePuts,
		EvictedEntries:  after.EvictedEntries - before.EvictedEntries,
		EvictedBytes:    after.EvictedBytes - before.EvictedBytes,
		EvictWalkErrors: after.EvictWalkErrors - before.EvictWalkErrors,
		IOErrors:        after.IOErrors - before.IOErrors,
		Degraded:        after.Degraded, // a state, not a count: report where the Dir ended up
		Trips:           after.Trips - before.Trips,
		Recovered:       after.Recovered - before.Recovered,
	}
}

// RenderText writes the reports exactly as cmd/ltexp prints them to
// stdout: each report followed by a blank line. The daemon's report
// endpoint serves these bytes, which is what makes an HTTP-submitted
// job diffable against a local ltexp run.
func (r *JobResult) RenderText(w io.Writer) error {
	for _, rep := range r.Reports {
		rep.Render(w)
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the structured envelope cmd/ltexp -json emits
// (scale/seed/parallelism, the reports, and the job's scheduler and
// cache counters).
func (r *JobResult) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scale       string             `json:"scale"`
		Seed        uint64             `json:"seed"`
		Parallelism int                `json:"parallelism"`
		Reports     []*Report          `json:"reports"`
		Cells       runner.Stats       `json:"cells"`
		Cache       *cachedir.Counters `json:"cache,omitempty"`
	}{r.Spec.Scale, r.Spec.Seed, r.Parallelism, r.Reports, r.Stats, r.Cache})
}

// Summary renders the cmd/ltexp stderr footer: the cell counters line,
// plus the persistent-cache line when a cache was attached.
func (r *JobResult) Summary() string {
	var b strings.Builder
	st := r.Stats
	fmt.Fprintf(&b, "cells: %d submitted, %d simulated, %d cache hits (%.1f%% eliminated)",
		st.Submitted, st.Executed, st.Hits, st.HitRate()*100)
	if r.Cache != nil {
		cc := r.Cache
		fmt.Fprintf(&b, "\ncache(%s): %d disk hits, %d persisted; traces: %d hits, %d stored; %d bad entries repaired, %d evicted (%s)",
			r.cacheMode, st.DiskHits, st.Persisted, cc.TraceHits, cc.TracePuts, cc.BadEntries, cc.EvictedEntries, r.cacheRoot)
		if cc.IOErrors > 0 || cc.Degraded {
			state := "recovered"
			if cc.Degraded {
				state = "DEGRADED (memory-only; writes suspended)"
			}
			fmt.Fprintf(&b, "\ncache: %d I/O errors, %s", cc.IOErrors, state)
		}
	}
	return b.String()
}
