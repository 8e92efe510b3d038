// Command ltsim runs a single simulation: one workload through one
// predictor, in trace-driven (coverage) or cycle-timing mode.
//
// Usage:
//
//	ltsim -bench mcf -pred lt-cords            # coverage run
//	ltsim -bench swim -pred ghb -timing        # timing run (IPC, traffic)
//	ltsim -bench art -pred dbcp -timing -l2 4  # with a 4MB L2
//	ltsim -trace mix.ltcx -contexts 4          # sharded multi-context coverage
//	ltsim -trace mix.ltcx -contexts 4 -workers 4 -sharedpred=false
//	ltsim -list                                # list benchmarks
//
// -contexts N routes a multi-context trace (context-tagged references,
// e.g. a consolidation mix recorded by lttrace) through the sharded
// coverage engine: each context gets a private cache hierarchy, with
// predictor state partitioned per context or (-sharedpred) shared across
// the mix. -workers parallelizes partitioned shards; results are
// byte-identical at any worker count.
//
// -trace replays an LTCX store (lttrace -out) through an mmap-backed
// cursor. A run that stops on a malformed record, or simulates a
// different number of references than the store's header records,
// exits 1 without printing results.
//
// -cache-dir points at the persistent trace cache shared with ltexp
// (DESIGN.md §12): preset streams materialize once per machine into
// mmap-backed LTCX stores and replay from disk on every later run.
// Simulation *results* are deliberately not cached here — ltsim prints
// predictor internals (the lt-cords counter block) that a memoized
// result could not reproduce; use ltexp for cached experiment results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/cachedir"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/exp"
	"repro/internal/ghb"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stride"
	"repro/internal/trace"
	"repro/internal/workload"
)

func buildPredictor(name string) (sim.Prefetcher, error) {
	l1 := sim.PaperL1D()
	switch name {
	case "none":
		return sim.Null{}, nil
	case "lt-cords":
		return core.New(l1, core.DefaultParams())
	case "dbcp":
		return dbcp.New(l1, dbcp.DefaultParams())
	case "dbcp-unlimited":
		return dbcp.New(l1, dbcp.UnlimitedParams())
	case "ghb":
		return ghb.New(l1, ghb.DefaultParams())
	case "stride":
		return stride.New(l1, stride.DefaultParams())
	}
	return nil, fmt.Errorf("unknown predictor %q (none|lt-cords|dbcp|dbcp-unlimited|ghb|stride)", name)
}

// main delegates to run so that deferred profile writers always execute
// before the process exits (os.Exit would skip them).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		bench    = flag.String("bench", "mcf", "benchmark preset name")
		traceIn  = flag.String("trace", "", "LTCX trace store to simulate instead of a preset (see lttrace)")
		pred     = flag.String("pred", "lt-cords", "predictor: none|lt-cords|dbcp|dbcp-unlimited|ghb|stride")
		scale    = flag.String("scale", "small", "workload scale: small|medium|large")
		seed     = flag.Uint64("seed", 1, "workload seed")
		timing   = flag.Bool("timing", false, "run the cycle timing model instead of trace-driven coverage")
		l2mb     = flag.Int("l2", 1, "L2 size in MB (timing mode)")
		withL2   = flag.Bool("withl2", false, "track L2 misses in coverage mode")
		ctxs     = flag.Int("contexts", 1, "shard count for multi-context traces (coverage mode; >1 selects the sharded engine)")
		workers  = flag.Int("workers", 0, "intra-run worker goroutines for partitioned sharded coverage (0/1 = serial)")
		shpred   = flag.Bool("sharedpred", false, "share one predictor across contexts (sharded mode; forces serial)")
		list     = flag.Bool("list", false, "list benchmark presets and exit")
		perfect  = flag.Bool("perfect", false, "perfect L1 (timing mode upper bound)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		cacheDir = flag.String("cache-dir", "", "persistent trace cache directory shared with ltexp (empty = regenerate)")
		cacheMod = flag.String("cache", "rw", "trace cache mode: off|ro|rw")
	)
	showVersion := buildinfo.VersionFlag("ltsim")
	flag.Parse()
	showVersion()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		// The heap profile is written when the simulation finishes, so the
		// hot path's steady-state allocations dominate the sample.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ltsim:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, p := range workload.Presets() {
			fmt.Printf("%-9s %-8s corr=%-8s mpki=%.1f dep=%v\n", p.Name, p.Suite, p.Corr, p.BranchMPKI, p.DepHeavy)
		}
		return 0
	}
	pf, err := buildPredictor(*pred)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltsim:", err)
		return 2
	}
	var (
		src   trace.Source
		store *trace.Materialized // the -trace file, checked after the run
		cur   *trace.Cursor
		p     workload.Preset
	)
	sc := workload.Small
	if *traceIn != "" {
		m, err := trace.OpenStore(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		defer m.Close()
		store, cur = m, m.Cursor()
		src = cur
		p.Name = *traceIn
	} else {
		var ok bool
		p, ok = workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "ltsim: unknown benchmark %q (try -list)\n", *bench)
			return 2
		}
		sc, err = workload.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 2
		}
		if *cacheDir != "" {
			mode, err := cachedir.ParseMode(*cacheMod)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltsim:", err)
				return 2
			}
			cdir, err := exp.OpenCache(*cacheDir, mode, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltsim:", err)
				return 1
			}
			m, err := exp.MaterializedTrace(cdir, p, sc, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltsim:", err)
				return 1
			}
			defer m.Close()
			src = m.Cursor()
		} else {
			src = p.Source(sc, *seed)
		}
	}

	if *timing {
		params := cpu.DefaultParams()
		params.BranchMPKI = p.BranchMPKI
		params.PerfectL1 = *perfect
		l2 := sim.PaperL2()
		l2.Size = *l2mb * mem.MiB
		e, err := cpu.NewEngine(params, cache.Config{}, l2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		r := e.Run(src, pf)
		if err := checkReplay(store, cur, r.Refs); err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		fmt.Printf("benchmark:      %s (%s scale, seed %d)\n", p.Name, sc, *seed)
		fmt.Printf("predictor:      %s\n", r.Predictor)
		fmt.Printf("instructions:   %d\n", r.Instrs)
		fmt.Printf("references:     %d\n", r.Refs)
		fmt.Printf("cycles:         %d\n", r.Cycles)
		fmt.Printf("IPC:            %.3f\n", r.IPC())
		fmt.Printf("L1 misses:      %d\n", r.L1Misses)
		fmt.Printf("L2 misses:      %d\n", r.L2Misses)
		fmt.Printf("TLB misses:     %d\n", r.TLBMiss)
		fmt.Printf("bytes/instr:    %.3f (base %.3f, incorrect %.3f, seq-write %.3f, seq-fetch %.3f)\n",
			r.BytesPerInstr(),
			float64(r.BytesBaseData)/float64(r.Instrs),
			float64(r.BytesIncorrect)/float64(r.Instrs),
			float64(r.BytesSeqWrite)/float64(r.Instrs),
			float64(r.BytesSeqFetch)/float64(r.Instrs))
		fmt.Printf("mem bus util:   %.1f%%\n", e.MemBusUtilization()*100)
		return 0
	}

	if *ctxs > 1 {
		sc, err := sim.Run(src, func(int) sim.Prefetcher {
			p, err := buildPredictor(*pred)
			if err != nil {
				panic(err) // name already validated above
			}
			return p
		}, sim.Config{WithL2: *withL2, Contexts: *ctxs, SharedState: *shpred, Workers: *workers})
		if err == nil {
			err = checkReplay(store, cur, sc.Refs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltsim:", err)
			return 1
		}
		fmt.Printf("trace:        %s (%d contexts, shared-predictor=%t, workers=%d)\n", p.Name, *ctxs, *shpred, *workers)
		fmt.Printf("predictor:    %s\n", sc.Predictor)
		fmt.Printf("references:   %d\n", sc.Refs)
		fmt.Printf("merged:       opportunity=%d correct=%d (%.1f%%) incorrect=%.1f%% train=%.1f%% early=%.1f%%\n",
			sc.Opportunity, sc.Correct, sc.CoveragePct()*100,
			sc.IncorrectPct()*100, sc.TrainPct()*100, sc.EarlyPct()*100)
		for i, sh := range sc.Shards {
			fmt.Printf("ctx %-3d       refs=%-10d opportunity=%-9d coverage=%.1f%%\n",
				i, sh.Refs, sh.Opportunity, sh.CoveragePct()*100)
		}
		return 0
	}

	cfg := sim.Config{WithL2: *withL2}
	cov, err := sim.RunCoverage(src, pf, cfg)
	if err == nil {
		err = checkReplay(store, cur, cov.Refs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltsim:", err)
		return 1
	}
	fmt.Printf("benchmark:    %s (%s scale, seed %d)\n", p.Name, sc, *seed)
	fmt.Printf("predictor:    %s\n", cov.Predictor)
	fmt.Printf("references:   %d\n", cov.Refs)
	fmt.Printf("opportunity:  %d base misses\n", cov.Opportunity)
	fmt.Printf("correct:      %d (%.1f%%)\n", cov.Correct, cov.CoveragePct()*100)
	fmt.Printf("incorrect:    %d (%.1f%%)\n", cov.Incorrect, cov.IncorrectPct()*100)
	fmt.Printf("train:        %d (%.1f%%)\n", cov.Train, cov.TrainPct()*100)
	fmt.Printf("early:        %d (%.1f%%)\n", cov.Early, cov.EarlyPct()*100)
	fmt.Printf("prefetches:   %d\n", cov.Prefetches)
	if *withL2 {
		fmt.Printf("L2 misses:    base %d -> %d (%.1f%% eliminated)\n",
			cov.BaseL2Misses, cov.MainL2Misses, cov.L2CoveragePct()*100)
	}
	if lt, ok := pf.(*core.Predictor); ok {
		st := lt.Stats()
		fmt.Printf("lt-cords:     recorded=%d streamed=%d headActs=%d predictions=%d\n",
			st.Recorded, st.StreamedSigs, st.HeadActivations, st.Predictions)
		fmt.Printf("              onchip=%dKB offchip-traffic write=%dKB fetch=%dKB\n",
			lt.OnChipBytes()/1024, (st.SeqWriteBytes+st.ConfWriteBytes)/1024, st.SeqFetchBytes/1024)
	}
	return 0
}

// checkReplay reports whether a run read the whole store it was given:
// a cursor stopped by a malformed record, or a reference count that
// differs from the one in the store's header, means the results describe
// some other stream. A nil store (a preset source) always passes.
func checkReplay(store *trace.Materialized, cur *trace.Cursor, refs uint64) error {
	if store == nil {
		return nil
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if refs != store.Refs() {
		return fmt.Errorf("simulated %d refs, but the store holds %d", refs, store.Refs())
	}
	return nil
}
