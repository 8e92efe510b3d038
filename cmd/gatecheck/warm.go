package main

import (
	"fmt"

	"repro/internal/cachedir"
	"repro/internal/exp"
)

// warmGate runs every experiment twice against one fresh cache directory:
// a cold pass that fills it, then a warm pass on a fresh scheduler and a
// fresh cache handle, so the directory is the only state carried over.
// The warm pass must execute zero simulations, write nothing, and render
// byte-identical reports. Together those prove DESIGN.md §12: content
// addresses are stable across processes, the gob and LTCX round trips
// are exact, and a warm start costs file reads instead of simulations.
func warmGate() {
	root := tempDir("warm")
	spec := exp.JobSpec{Experiments: []string{"all"}, Scale: "small", Benchmarks: []string{"swim", "mcf"}}
	pass := func(label string) (string, *exp.JobResult) {
		cdir, err := exp.OpenCache(root, cachedir.ReadWrite, 0)
		if err != nil {
			fail(err)
		}
		out, res := runLocal(spec, cdir)
		st := res.Stats
		logf("%s pass: %d cells submitted, %d simulated, %d disk hits, %d persisted",
			label, st.Submitted, st.Executed, st.DiskHits, st.Persisted)
		return out, res
	}
	cold, coldRes := pass("cold")
	if coldRes.Stats.Executed == 0 {
		fail(fmt.Errorf("cold pass executed no simulations"))
	}
	warm, warmRes := pass("warm")
	if warm != cold {
		fail(fmt.Errorf("warm reports differ from cold"))
	}
	if warmRes.Stats.Executed != 0 {
		fail(fmt.Errorf("warm pass executed %d simulations, want 0", warmRes.Stats.Executed))
	}
	if c := warmRes.Cache; c.Puts != 0 || c.TracePuts != 0 {
		fail(fmt.Errorf("warm pass wrote %d result and %d trace entries, want 0", c.Puts, c.TracePuts))
	}
	logf("%d experiments byte-identical warm, 0 simulations executed", len(warmRes.Reports))
}
