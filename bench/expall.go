package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

// expAllParams sizes the expall-cold workload.
type expAllParams struct {
	// spec is the job `ltexp -exp all -q` runs; the run sets its seed.
	spec exp.JobSpec
	// reference is a file, relative to the repository root, whose first
	// fenced block is the job's output at seed 1 ("" = no byte check).
	reference string
	// setups is how many passes set-up makes over the job's traces;
	// setup_s is the median.
	setups int
}

// expAllFull is exactly `ltexp -exp all -q`: every experiment, Small
// scale, one cold job on a fresh scheduler with no persistent cache.
var expAllFull = expAllParams{
	spec:      exp.JobSpec{Experiments: []string{"all"}, Scale: "small"},
	reference: "EXPERIMENTS.md",
	setups:    3,
}

// expAllCold measures the run every user of the reproduction makes. The
// job starts each benchmark by generating and materializing its trace;
// set-up does that apart, for every preset the job may read, and setup_s
// is the median pass. The job itself, on a fresh scheduler, starts cold.
func expAllCold(e *env, p expAllParams) (*outcome, error) {
	o := newOutcome()
	spec, err := p.spec.Normalize()
	if err != nil {
		return nil, err
	}
	spec.Seed = e.seed
	scale, err := workload.ParseScale(spec.Scale)
	if err != nil {
		return nil, err
	}
	presets := workload.Presets()
	if len(spec.Benchmarks) > 0 {
		if presets, err = byName(spec.Benchmarks); err != nil {
			return nil, err
		}
	}
	_, o.e2e["setup_s"] = materializeAll(e, presets, scale, p.setups)

	want, err := seedOneReference(e, p.reference)
	if err != nil {
		return nil, err
	}
	var lat []float64
	before := selfUsage()
	t0 := time.Now()
	for len(lat) == 0 || time.Since(t0) < e.window {
		t := time.Now()
		out, err := expAllJob(e, o, spec)
		lat = append(lat, ms(time.Since(t)))
		if err == nil && want != nil && !bytes.Equal(out, want) {
			err = fmt.Errorf("seed-1 output (%d bytes) differs from the fenced block of %s (%d bytes)", len(out), p.reference, len(want))
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
	o.note("op_tail_ms is the %s of %d jobs", label, len(lat))
	return o, nil
}

// expAllJob runs one cold job on a fresh scheduler and returns the bytes
// ltexp would print. Traced, it issues one RunJob per experiment on that
// scheduler instead, which does the same cell work, and times each.
func expAllJob(e *env, o *outcome, spec exp.JobSpec) ([]byte, error) {
	sched := runner.New(0)
	var results []*exp.JobResult
	root := e.tr.start(0, e.name, "bench.job")
	defer e.tr.end(root)
	if e.tr == nil {
		res, err := exp.RunJob(e.ctx, spec, sched)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	} else {
		for _, id := range spec.Experiments {
			one := spec
			one.Experiments = []string{id}
			t := time.Now()
			sp := e.tr.start(root, e.name, "exp."+id)
			res, err := exp.RunJob(e.ctx, one, sched)
			e.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			o.layer["exp."+id+".s"] = time.Since(t).Seconds()
			o.layer["exp."+id+".cells_executed"] = float64(res.Stats.Executed)
			results = append(results, res)
		}
	}
	var ids []string
	var buf bytes.Buffer
	t := time.Now()
	sp := e.tr.start(root, e.name, "exp.render")
	for _, res := range results {
		for _, r := range res.Reports {
			ids = append(ids, r.ID)
		}
		if err := res.RenderText(&buf); err != nil {
			return nil, err
		}
	}
	e.tr.end(sp)
	o.layer["exp.render_ms"] = ms(time.Since(t))

	st := sched.Stats()
	runnerMetrics(o, st)
	switch {
	case strings.Join(ids, " ") != strings.Join(spec.Experiments, " "):
		return nil, fmt.Errorf("reports %v, want %v", ids, spec.Experiments)
	case st.Executed == 0 || st.DiskHits != 0:
		return nil, fmt.Errorf("cold job executed %d cells and revived %d from disk; want >0 and 0", st.Executed, st.DiskHits)
	case st.Submitted != st.Executed+st.Hits:
		return nil, fmt.Errorf("cells: %d submitted != %d executed + %d hits", st.Submitted, st.Executed, st.Hits)
	}
	return buf.Bytes(), nil
}

func runnerMetrics(o *outcome, st runner.Stats) {
	o.layer["runner.submitted"] = float64(st.Submitted)
	o.layer["runner.executed"] = float64(st.Executed)
	o.layer["runner.mem_hits"] = float64(st.Hits)
	o.layer["runner.disk_hits"] = float64(st.DiskHits)
	o.layer["runner.persisted"] = float64(st.Persisted)
	o.layer["runner.eliminated_ratio"] = st.HitRate()
}

// seedOneReference returns the first fenced block of the reference file
// when the run's seed is 1, and nil otherwise.
func seedOneReference(e *env, file string) ([]byte, error) {
	if file == "" || e.seed != 1 {
		return nil, nil
	}
	raw, err := os.ReadFile(filepath.Join(e.root, file))
	if err != nil {
		return nil, err
	}
	_, rest, ok := bytes.Cut(raw, []byte("```\n"))
	block, _, closed := bytes.Cut(rest, []byte("```\n"))
	if !ok || !closed {
		return nil, fmt.Errorf("%s has no fenced block", file)
	}
	return block, nil
}
