// Package exp contains one runner per figure and table of the paper's
// evaluation (Section 5), plus the Section 5.9 power comparison and a set
// of design-choice ablations. Each runner produces a Report: a titled
// table with notes, rendered by cmd/ltexp and collected into
// EXPERIMENTS.md.
//
// See DESIGN.md §3 for the experiment index (what each id reproduces, the
// workloads involved, and the modules exercised).
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/cachedir"
	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Options parameterize an experiment run.
type Options struct {
	// Context, when non-nil, cancels the run: queued-but-unstarted
	// simulation cells abort promptly (runner.All semantics — cells
	// already executing finish and stay cached) and Run returns the
	// context's error. Nil means context.Background(). The daemon threads
	// each job's context here so a cancelled job releases the shared
	// scheduler instead of grinding through its queue.
	Context context.Context
	// Scale selects workload size (default Small; Medium for paper-like
	// runs).
	Scale workload.Scale
	// Seed is the workload seed (default 1).
	Seed uint64
	// Benchmarks restricts the run to the named presets (nil = the
	// experiment's default set, usually all 28).
	Benchmarks []string
	// Progress, when non-nil, receives one line per completed step.
	// Progress lines are emitted during the ordered reduction (after the
	// cells of a batch complete), so their order is deterministic at any
	// parallelism.
	Progress io.Writer
	// Parallelism is the worker count for simulation cells (0 =
	// GOMAXPROCS). Ignored when Runner is set.
	Parallelism int
	// Runner, when non-nil, is a shared cell scheduler: its result cache
	// spans every experiment submitted to it (cmd/ltexp shares one
	// scheduler across an -exp all invocation so repeated cells are
	// simulated once). When nil, each Run builds its own. A caller that
	// supplies both Runner and Cache must attach the cache itself
	// (Scheduler.SetStore) — sched only wires the two together for
	// schedulers it creates. Runner memoizes results, not traces: a trace
	// lives in the trace memo of the jobs running on Runner (see traces),
	// so it is freed when the last job using it ends and reaches a later
	// job only through Cache's traces tier.
	Runner *runner.Scheduler
	// Cache, when non-nil, is the persistent cell/trace cache
	// (exp.OpenCache): cell results revive across process restarts and
	// preset traces materialize once per machine. The in-memory scheduler
	// cache becomes a write-through L1 over it.
	Cache *cachedir.Dir

	// traces is the job's lease on its trace memo (leaseTraces), through
	// which its "mat" cells run. RunJob opens one per job; Run opens one
	// per call when it is nil.
	traces *traceLease
}

// sched resolves the cell scheduler for a run.
func (o Options) sched() *runner.Scheduler {
	if o.Runner != nil {
		return o.Runner
	}
	s := runner.New(o.Parallelism)
	if o.Cache != nil {
		s.SetStore(o.Cache)
	}
	return s
}

// ctx resolves the run's context.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// presets resolves the benchmark list.
func (o Options) presets() ([]workload.Preset, error) {
	if len(o.Benchmarks) == 0 {
		return workload.Presets(), nil
	}
	var out []workload.Preset
	for _, name := range o.Benchmarks {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Section is one captioned table within a report.
type Section struct {
	Caption string
	Table   *textplot.Table
}

// Report is a rendered experiment result.
type Report struct {
	// ID is the experiment identifier (e.g. "fig8", "table3").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Sections hold the result tables.
	Sections []Section
	// Notes carry derived headline numbers and caveats.
	Notes []string
}

// AddSection appends a captioned table.
func (r *Report) AddSection(caption string, t *textplot.Table) {
	r.Sections = append(r.Sections, Section{Caption: caption, Table: t})
}

// Table returns the first section's table (many experiments have one).
func (r *Report) Table() *textplot.Table {
	if len(r.Sections) == 0 {
		return nil
	}
	return r.Sections[0].Table
}

// MarshalJSON renders the report as structured JSON (the ltexp -json
// output consumed by bench tracking).
func (r *Report) MarshalJSON() ([]byte, error) {
	type section struct {
		Caption string          `json:"caption,omitempty"`
		Table   *textplot.Table `json:"table"`
	}
	sections := make([]section, len(r.Sections))
	for i, s := range r.Sections {
		sections[i] = section{Caption: s.Caption, Table: s.Table}
	}
	return json.Marshal(struct {
		ID       string    `json:"id"`
		Title    string    `json:"title"`
		Sections []section `json:"sections"`
		Notes    []string  `json:"notes,omitempty"`
	}{r.ID, r.Title, sections, r.Notes})
}

// Render writes the report to w.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, s := range r.Sections {
		fmt.Fprintln(w)
		if s.Caption != "" {
			fmt.Fprintf(w, "-- %s --\n", s.Caption)
		}
		if s.Table != nil {
			s.Table.Render(w)
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
}

// Runner is an experiment entry point.
type Runner func(Options) (*Report, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("exp: duplicate experiment id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// IDs returns all experiment ids in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, o Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	if o.traces == nil {
		o.traces = leaseTraces(o.Runner, o.Cache)
		defer o.traces.release()
	}
	return r(o)
}

// memIntensive is the benchmark subset used by the expensive parameter
// sweeps (the paper's storage studies focus on the same kind of
// memory-intensive applications).
var memIntensive = []string{
	"applu", "art", "em3d", "equake", "facerec", "lucas", "mcf", "mgrid", "swim", "wupwise",
}

// timingParams builds the per-benchmark core parameters.
func timingParams(p workload.Preset) cpu.Params {
	cp := cpu.DefaultParams()
	cp.BranchMPKI = p.BranchMPKI
	return cp
}

// meanSpeedup folds per-benchmark percent improvements into the
// paper's mean (Table 3 reports arithmetic means of percent improvements).
func meanSpeedup(vals []float64) float64 { return stats.Mean(vals) }
