// Command ltexp regenerates the paper's figures and tables.
//
// Usage:
//
//	ltexp -exp fig8                 # one experiment, default scale (small)
//	ltexp -exp consol               # sharded 2/4/8-context consolidation mixes
//	ltexp -exp all -scale medium    # every experiment at medium scale
//	ltexp -exp all -parallel 8      # fan simulation cells over 8 workers
//	ltexp -exp all -json            # structured output for bench tracking
//	ltexp -exp table3 -bench mcf,em3d,swim
//	ltexp -exp all -cache-dir ~/.cache/ltexp   # persistent warm-start cache
//	ltexp -exp all -cache-dir D -cache ro      # read a shared cache, never write
//	ltexp -list                     # enumerate experiment ids
//
// Experiments are decomposed into simulation cells executed by a worker
// pool (internal/runner); one scheduler is shared across the whole
// invocation, so cells repeated between figures (baseline timing runs,
// correlation analyses, oracle coverage runs) are simulated exactly once.
// The cell is the only unit of parallelism: -parallel sets how many run at
// once, and each simulation inside a cell runs serially. Reports are
// byte-identical at any -parallel value.
//
// -cache-dir extends the cell cache across invocations: results persist
// in a content-addressed on-disk store (internal/cachedir) keyed by cell
// kind, canonical configuration fingerprints, stream identity and a
// code-version stamp, and preset traces persist as mmap-backed LTCX
// stores, so a repeat invocation executes zero simulations and renders
// byte-identical reports (the footer and -json envelope carry the
// counters proving it). -cache selects off|ro|rw, -cache-cap bounds the
// directory size with LRU eviction. See DESIGN.md §12 for the
// content-address scheme and invalidation rules.
//
// Experiment ids map to the paper artifacts; see DESIGN.md §3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (or 'all')")
		scale    = flag.String("scale", "small", "workload scale: small|medium|large")
		seed     = flag.Uint64("seed", 1, "workload seed")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default: experiment's own)")
		parallel = flag.Int("parallel", 0, "simulation cell workers (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit one JSON envelope instead of text reports")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quiet    = flag.Bool("q", false, "suppress progress output")
		cacheDir = flag.String("cache-dir", "", "persistent cell/trace cache directory (empty = in-memory only)")
		cacheMod = flag.String("cache", "rw", "persistent cache mode: off|ro|rw")
		cacheCap = flag.String("cache-cap", "0", "persistent cache size cap, e.g. 2G (0 = unlimited, LRU eviction)")
	)
	showVersion := buildinfo.VersionFlag("ltexp")
	flag.Parse()
	showVersion()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "ltexp: -exp required (try -list)")
		os.Exit(2)
	}
	// Flag-shaped mistakes exit 2 (like cache mode/cap below); RunJob
	// re-validates the scale for the daemon path, where it is a 400.
	if _, err := workload.ParseScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(2)
	}
	mode, err := cachedir.ParseMode(*cacheMod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(2)
	}
	capBytes, err := cachedir.ParseSize(*cacheCap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(2)
	}
	cdir, err := exp.OpenCache(*cacheDir, mode, capBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(1)
	}
	// One scheduler for the whole invocation: its cell cache spans every
	// experiment, so figures sharing cells re-simulate nothing. With
	// -cache-dir, that in-memory cache becomes a write-through L1 over the
	// persistent store, which spans invocations.
	sched := runner.New(*parallel)
	if cdir != nil {
		sched.SetStore(cdir)
	}
	// The CLI is one job through the same entry point the daemon uses
	// (exp.RunJob): spec normalization, per-experiment dispatch with
	// cancellation, and report rendering are one shared code path.
	spec := exp.JobSpec{
		Experiments: []string{*expID},
		Scale:       *scale,
		Seed:        *seed,
		Cache:       cdir,
	}
	if *benches != "" {
		spec.Benchmarks = strings.Split(*benches, ",")
	}
	if !*quiet {
		spec.Progress = os.Stderr
	}
	// Ctrl-C cancels the job: queued cells abort, in-flight cells finish
	// (and, with -cache-dir, persist — an interrupted sweep resumes warm).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := exp.RunJob(ctx, spec, sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(1)
	}
	if *jsonOut {
		err = res.RenderJSON(os.Stdout)
	} else {
		err = res.RenderText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltexp:", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, res.Summary())
	}
}
