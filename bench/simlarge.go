package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corr"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simLargeParams sizes the sim-large workload.
type simLargeParams struct {
	scale   workload.Scale
	presets []string
	// setups is how many times set-up materializes every trace; setup_s
	// is the median.
	setups int
	// digestFile, relative to the repository root, pins the sha256 of one
	// round's rendered results at seed 1 ("" = no pin).
	digestFile string
	// ladderScale and ladderRefs size the streams of the traced ladder.
	ladderScale workload.Scale
	ladderRefs  uint64
}

// simLargeFull mixes pointer chasing (mcf, em3d), streaming (swim) and a
// low-miss footprint (gzip) at Large scale, so a predictor change that
// helps one access pattern and hurts another shows.
var simLargeFull = simLargeParams{
	scale:       workload.Large,
	presets:     []string{"mcf", "swim", "em3d", "gzip"},
	setups:      3,
	digestFile:  "bench/testdata/sim-large.seed1.sha256",
	ladderScale: workload.Large,
	ladderRefs:  1 << 21,
}

// simLarge mirrors ltsim on one goroutine: set-up materializes each
// preset's trace; one op is a round that runs, per preset, the timing
// engine without a predictor and with LT-cords, then LT-cords coverage.
func simLarge(e *env, p simLargeParams) (*outcome, error) {
	o := newOutcome()
	presets, err := byName(p.presets)
	if err != nil {
		return nil, err
	}
	var stores []*trace.Materialized
	stores, o.e2e["setup_s"] = materializeAll(e, presets, p.scale, p.setups)

	var pinned string
	if p.digestFile != "" && e.seed == 1 {
		raw, err := os.ReadFile(filepath.Join(e.root, p.digestFile))
		if err != nil {
			return nil, err
		}
		pinned = string(bytes.TrimSpace(raw))
	}
	var lat []float64
	var first string
	var refs uint64
	var busy time.Duration
	before := selfUsage()
	t0 := time.Now()
	for len(lat) == 0 || time.Since(t0) < e.window {
		t := time.Now()
		digest, n, d, err := simRound(e, presets, stores)
		lat = append(lat, ms(time.Since(t)))
		refs += n
		busy += d
		switch {
		case err != nil:
		case first != "" && digest != first:
			err = fmt.Errorf("round %d results differ from round 1", len(lat))
		case pinned != "" && digest != pinned:
			err = fmt.Errorf("seed-1 results digest %s, %s pins %s", digest, p.digestFile, pinned)
		}
		if first == "" {
			first = digest
		}
		o.done(err)
		if e.ctx.Err() != nil {
			break
		}
	}
	elapsed := time.Since(t0)
	inProcessMetrics(o, before, selfUsage(), len(lat))
	o.e2e["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	var label string
	o.e2e["op_tail_ms"], label = tail(append([]float64(nil), lat...))
	o.e2e["op_p50_ms"] = median(lat)
	o.layer["sim.mrefs_per_s"] = float64(refs) / 1e6 / busy.Seconds()
	o.note("op_tail_ms is the %s of %d rounds; results sha256 %s", label, len(lat), first)
	if e.tr != nil {
		if err := ladder(e, o, p); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func byName(names []string) ([]workload.Preset, error) {
	presets := make([]workload.Preset, len(names))
	for i, name := range names {
		pr, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q", name)
		}
		presets[i] = pr
	}
	return presets, nil
}

// materializeAll generates and materializes each preset's trace at scale
// and the run's seed, passes times over, and returns the last pass's
// stores and the median seconds a pass took.
func materializeAll(e *env, presets []workload.Preset, scale workload.Scale, passes int) ([]*trace.Materialized, float64) {
	var stores []*trace.Materialized
	var took []float64
	for range passes {
		stores = nil
		runtime.GC()
		t := time.Now()
		root := e.tr.start(0, e.name, "bench.setup")
		for _, pr := range presets {
			sp := e.tr.start(root, e.name, "trace.materialize."+pr.Name)
			stores = append(stores, trace.Materialize(pr.Source(scale, e.seed)))
			e.tr.end(sp)
		}
		e.tr.end(root)
		took = append(took, time.Since(t).Seconds())
	}
	return stores, median(took)
}

// simRound runs the twelve simulations of one round and returns the
// sha256 of their rendered results, the references simulated and the time
// spent inside the simulation calls.
func simRound(e *env, presets []workload.Preset, stores []*trace.Materialized) (string, uint64, time.Duration, error) {
	var buf bytes.Buffer
	var refs uint64
	var busy time.Duration
	root := e.tr.start(0, e.name, "bench.round")
	defer e.tr.end(root)
	for i, pr := range presets {
		st := stores[i]
		for _, run := range []struct {
			span  string
			newPF func() (sim.Prefetcher, error)
		}{{"cpu.timing.", noPredictor}, {"cpu.timing_lt.", ltcords}} {
			t := time.Now()
			sp := e.tr.start(root, e.name, run.span+pr.Name)
			r, err := timing(pr, st.Cursor(), run.newPF)
			e.tr.end(sp)
			busy += time.Since(t)
			refs += r.Refs
			if err != nil {
				return "", 0, 0, err
			}
			if r.Refs != st.Refs() || r.Instrs != st.Stats().Instrs {
				return "", 0, 0, fmt.Errorf("%s%s: timing run saw %d refs / %d instrs, store holds %d / %d",
					run.span, pr.Name, r.Refs, r.Instrs, st.Refs(), st.Stats().Instrs)
			}
			fmt.Fprintf(&buf, "%s timing %s: instrs=%d refs=%d cycles=%d l1=%d l2=%d tlb=%d bytes=%d/%d/%d/%d bus=%d pf=%d/%d\n",
				pr.Name, r.Predictor, r.Instrs, r.Refs, r.Cycles, r.L1Misses, r.L2Misses, r.TLBMiss,
				r.BytesBaseData, r.BytesIncorrect, r.BytesSeqWrite, r.BytesSeqFetch, r.MemBusBusy, r.PrefetchIssued, r.PrefetchDrops)
		}
		t := time.Now()
		sp := e.tr.start(root, e.name, "sim.coverage_lt."+pr.Name)
		cov, err := coverage(st.Cursor(), ltcords)
		e.tr.end(sp)
		busy += time.Since(t)
		refs += cov.Refs
		if err != nil {
			return "", 0, 0, err
		}
		if cov.Refs != st.Refs() {
			return "", 0, 0, fmt.Errorf("%s: coverage run saw %d refs, store holds %d", pr.Name, cov.Refs, st.Refs())
		}
		fmt.Fprintf(&buf, "%s coverage %s: refs=%d opportunity=%d correct=%d incorrect=%d train=%d early=%d prefetches=%d l1=%d\n",
			pr.Name, cov.Predictor, cov.Refs, cov.Opportunity, cov.Correct, cov.Incorrect, cov.Train, cov.Early, cov.Prefetches, cov.MainL1Misses)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), refs, busy, nil
}

func noPredictor() (sim.Prefetcher, error) { return sim.Null{}, nil }

func ltcords() (sim.Prefetcher, error) { return core.New(sim.PaperL1D(), core.DefaultParams()) }

func unlimitedDBCP() (sim.Prefetcher, error) { return dbcp.New(sim.PaperL1D(), dbcp.UnlimitedParams()) }

// timing runs ltsim's default timing configuration for pr over src: the
// paper's core with the preset's branch behaviour and a 1 MB L2.
func timing(pr workload.Preset, src trace.Source, newPF func() (sim.Prefetcher, error)) (cpu.Result, error) {
	params := cpu.DefaultParams()
	params.BranchMPKI = pr.BranchMPKI
	l2 := sim.PaperL2()
	l2.Size = 1 * mem.MiB
	eng, err := cpu.NewEngine(params, cache.Config{}, l2)
	if err != nil {
		return cpu.Result{}, err
	}
	pf, err := newPF()
	if err != nil {
		return cpu.Result{}, err
	}
	return eng.Run(src, pf), nil
}

// coverage runs the trace-driven coverage driver over src with the
// paper's L1D.
func coverage(src trace.Source, newPF func() (sim.Prefetcher, error)) (sim.Coverage, error) {
	pf, err := newPF()
	if err != nil {
		return sim.Coverage{}, err
	}
	return sim.RunCoverage(src, pf, sim.Config{})
}

// ladder climbs the simulation pipeline one layer at a time on each
// ladder preset and reports each layer's cost as its rung's ns/ref minus
// the rung below: generate → encode → replay → L1 → coverage driver
// (no predictor) → LT-cords; replay → timing engine → timing with
// LT-cords; coverage → unlimited DBCP; replay → correlation analysis.
func ladder(e *env, o *outcome, p simLargeParams) error {
	for _, name := range ladderPresets {
		pr, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown preset %q", name)
		}
		root := e.tr.start(0, e.name, "bench.ladder."+name)
		var err error
		rung := func(layer string, fn func() (uint64, error)) float64 {
			if err != nil {
				return 0
			}
			t := time.Now()
			sp := e.tr.start(root, e.name, layer+"."+name)
			var n uint64
			n, err = fn()
			e.tr.end(sp)
			return float64(time.Since(t).Nanoseconds()) / float64(max(n, 1))
		}
		source := func() trace.Source { return trace.Limit(pr.Source(p.ladderScale, e.seed), p.ladderRefs) }
		var m *trace.Materialized
		covRung := func(newPF func() (sim.Prefetcher, error)) func() (uint64, error) {
			return func() (uint64, error) { c, err := coverage(m.Cursor(), newPF); return c.Refs, err }
		}
		timRung := func(newPF func() (sim.Prefetcher, error)) func() (uint64, error) {
			return func() (uint64, error) { r, err := timing(pr, m.Cursor(), newPF); return r.Refs, err }
		}
		gen := rung("workload.gen", func() (uint64, error) { return drain(source()), nil })
		encode := rung("trace.encode", func() (uint64, error) { m = trace.Materialize(source()); return m.Refs(), nil })
		replay := rung("trace.replay", func() (uint64, error) { return drain(m.Cursor()), nil })
		l1 := rung("cache.l1", func() (uint64, error) { return l1Pass(m) })
		cov := rung("sim.coverage", covRung(noPredictor))
		lt := rung("core.ltcords", covRung(ltcords))
		tim := rung("cpu.timing", timRung(noPredictor))
		timLT := rung("cpu.timing_lt", timRung(ltcords))
		db := rung("dbcp", covRung(unlimitedDBCP))
		an := rung("corr.analyze", func() (uint64, error) {
			r, err := corr.Analyze(m.Cursor(), corr.Config{})
			return r.Refs, err
		})
		e.tr.end(root)
		if err != nil {
			return fmt.Errorf("ladder on %s: %w", name, err)
		}
		for metric, v := range map[string]float64{
			"workload.gen_ns_per_ref":  gen,
			"trace.encode_ns_per_ref":  encode - gen,
			"trace.bytes_per_ref":      float64(m.Bytes()) / float64(m.Refs()),
			"trace.replay_ns_per_ref":  replay,
			"cache.l1_ns_per_ref":      l1 - replay,
			"sim.coverage_ns_per_ref":  cov - l1,
			"core.ltcords_ns_per_ref":  lt - cov,
			"cpu.timing_ns_per_ref":    tim - replay,
			"cpu.timing_lt_ns_per_ref": timLT - tim,
			"dbcp.ns_per_ref":          db - cov,
			"corr.analyze_ns_per_ref":  an - replay,
		} {
			o.layer[metric+"."+name] = v
		}
	}
	return nil
}

// drain reads src to the end and returns the references it produced.
func drain(src trace.Source) uint64 {
	buf := make([]trace.Ref, trace.DefaultBatch)
	var n uint64
	for {
		k := src.ReadRefs(buf)
		if k == 0 {
			return n
		}
		n += uint64(k)
	}
}

// l1Pass replays m through the paper's L1D with the batch hit path the
// coverage driver's base system uses.
func l1Pass(m *trace.Materialized) (uint64, error) {
	l1, err := cache.New(sim.PaperL1D())
	if err != nil {
		return 0, err
	}
	cur := m.Cursor()
	buf := make([]trace.Ref, trace.DefaultBatch)
	lanes := trace.NewBatchLanes(trace.DefaultBatch)
	hits := make([]bool, trace.DefaultBatch)
	var n uint64
	for {
		k := cur.ReadRefs(buf)
		if k == 0 {
			return n, nil
		}
		lanes.Fill(buf[:k])
		l1.AccessBatchHits(lanes.Addrs[:k], lanes.Writes[:k], lanes.Nows[:k], hits[:k])
		n += uint64(k)
	}
}
