package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkReplay passes a run over an intact store and fails one that stops
// early, whether a malformed record ended the cursor or the run did not
// read to the end.
func TestCheckReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ltcx")
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x10000000, Arrays: 2, Elems: 16384, Stride: 64, Iters: 2, PCBase: 0x400,
	})
	if err := trace.Materialize(src).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	coverage := func() (*trace.Materialized, *trace.Cursor, uint64) {
		t.Helper()
		m, err := trace.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		c := m.Cursor()
		cov, err := sim.RunCoverage(c, sim.Null{}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m, c, cov.Refs
	}

	m, c, refs := coverage()
	if err := checkReplay(m, c, refs); err != nil {
		t.Fatalf("intact store: %v", err)
	}
	if err := checkReplay(m, c, refs-1); err == nil {
		t.Fatal("a run one reference short passed")
	}
	if err := checkReplay(nil, nil, 0); err != nil {
		t.Fatalf("preset source: %v", err)
	}

	// Damage the middle of the chunk data: the container still opens, but
	// the cursor stops on a malformed record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw[len(raw)-m.Bytes()/2:], bytes.Repeat([]byte{0xff}, 12))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, c, refs = coverage()
	if err := checkReplay(m, c, refs); !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("damaged store: got %v, want ErrBadTrace", err)
	}
	if refs >= m.Refs() {
		t.Fatalf("damaged store simulated %d of %d refs", refs, m.Refs())
	}
}
