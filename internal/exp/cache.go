package exp

import (
	"encoding/gob"
	"fmt"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/corr"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MaterializedTrace resolves one preset's stream through the persistent
// cache outside an experiment run (cmd/ltsim's warm path): it submits
// the same mat cell the experiments use to a trace memo wired to dir,
// so a stream any prior run materialized mmaps straight back in, and a
// miss generates, materializes and persists it for everyone.
func MaterializedTrace(dir *cachedir.Dir, p workload.Preset, sc workload.Scale, seed uint64) (*trace.Materialized, error) {
	o := Options{Scale: sc, Seed: seed, Cache: dir, traces: leaseTraces(nil, dir)}
	defer o.traces.release()
	return o.materialized(p, seed)
}

// CacheVersion is the code-version stamp mixed into every persistent
// cache address (cachedir.Options.Version). It lives in
// internal/buildinfo (alongside the release version and commit, so
// -version flags and the daemon's /healthz report it); see the comment
// there for the bump rules. This alias keeps the historical exp-side
// spelling working.
const CacheVersion = buildinfo.CacheVersion

// OpenCache opens the persistent cell/trace cache rooted at dir with the
// experiment harness's version stamp. Mode Off (or an empty dir) yields
// a nil *cachedir.Dir, which all consumers treat as "no cache".
func OpenCache(dir string, mode cachedir.Mode, maxBytes int64) (*cachedir.Dir, error) {
	if dir == "" {
		return nil, nil
	}
	return cachedir.Open(dir, cachedir.Options{Mode: mode, MaxBytes: maxBytes, Version: CacheVersion})
}

// resultCodec persists plain-data cell results through gob; the concrete
// types are registered below so encoded interface values round-trip.
var resultCodec runner.Codec = runner.GobCodec{}

func init() {
	gob.Register(ltCov{})
	gob.Register(timingRun{})
	gob.Register(missRates{})
	gob.Register(sim.Coverage{})
	gob.Register(sim.ShardedCoverage{})
	gob.Register(corr.Result{})
}

// traceCodec persists materialized-trace cells out of band: Encode
// writes the trace into the cache's content-addressed traces tier and
// returns the digest as the stored payload; Decode maps the store back
// in. The runner then treats trace revival like any other disk hit —
// which is what lets a warm run report Executed == 0 — while the trace
// bytes live once per machine, deduplicated across cell keys, replayed
// via mmap without heap copies.
type traceCodec struct {
	dir *cachedir.Dir
}

// Encode implements runner.Codec. An AddTrace failure — a full or dead
// disk, or a cache already degraded into memory-only mode — returns an
// error, which the runner's persist path treats as "skip persisting":
// the cell's computed value is still returned to its job untouched. A
// persist-side fault must never fail a cell (the cache is an
// accelerator, not a dependency); TestTracePersistFailureDoesNotFailCell
// pins this.
func (tc traceCodec) Encode(v any) ([]byte, error) {
	m, ok := v.(*trace.Materialized)
	if !ok {
		return nil, fmt.Errorf("exp: traceCodec got %T", v)
	}
	digest, err := tc.dir.AddTrace(m)
	if err != nil {
		return nil, err
	}
	return []byte(digest), nil
}

// Decode implements runner.Codec. A digest whose trace file is missing
// or corrupt decodes with an error, which the runner treats as a miss:
// the stream is regenerated and both tiers repaired.
func (tc traceCodec) Decode(data []byte) (any, error) {
	m, ok := tc.dir.OpenTrace(string(data))
	if !ok {
		return nil, fmt.Errorf("exp: trace %.12s… not in cache", string(data))
	}
	return m, nil
}
