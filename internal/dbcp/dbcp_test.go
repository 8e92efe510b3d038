package dbcp

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

func sweep(iters int) *workload.SweepConfig {
	return &workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: iters, PCBase: 0x10,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.PaperL1D(), Params{EntryBytes: 0}); err == nil {
		t.Error("EntryBytes 0 must fail")
	}
	if _, err := New(sim.PaperL1D(), Params{EntryBytes: 5, TableBytes: 1024, Assoc: 0}); err == nil {
		t.Error("zero associativity must fail")
	}
	pr, err := New(sim.PaperL1D(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// 2MB / 5B = 419430 entries; sets round down to a power of two.
	if got := pr.Entries(); got != 32768*8 {
		t.Errorf("entries = %d want %d", got, 32768*8)
	}
	if pr.Name() != "dbcp-2048KB" {
		t.Errorf("name = %q", pr.Name())
	}
	un := MustNew(sim.PaperL1D(), UnlimitedParams())
	if un.Name() != "dbcp-unlimited" {
		t.Errorf("unlimited name = %q", un.Name())
	}
}

func TestUnlimitedCoversSweep(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), UnlimitedParams())
	cov, err := sim.RunCoverage(workload.ArraySweep(*sweep(6)), pr, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unlimited dbcp: coverage=%.1f%% train=%.1f%% (entries=%d, %dKB)",
		cov.CoveragePct()*100, cov.TrainPct()*100, pr.TableEntries(), pr.StorageBytes()/1024)
	if cov.CoveragePct() < 0.6 {
		t.Errorf("unlimited DBCP coverage %.2f too low", cov.CoveragePct())
	}
	if pr.TableEntries() == 0 {
		t.Error("no correlations learned")
	}
}

// The Figure 4 effect: a tiny table thrashes on a footprint with many more
// signatures than entries, collapsing coverage relative to unlimited.
func TestFiniteTableDegrades(t *testing.T) {
	run := func(p Params) float64 {
		pr := MustNew(sim.PaperL1D(), p)
		cov, err := sim.RunCoverage(workload.ArraySweep(*sweep(6)), pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cov.CoveragePct()
	}
	small := Params{TableBytes: 16 * 1024, EntryBytes: 5, Assoc: 8, ConfInit: 2, ConfMax: 3, ConfThresh: 2}
	smallCov := run(small)
	unlCov := run(UnlimitedParams())
	t.Logf("finite 16KB: %.2f, unlimited: %.2f", smallCov, unlCov)
	// 16KB = ~3K entries vs 16K signatures: the working set cannot fit.
	if smallCov > unlCov*0.6 {
		t.Errorf("16KB table coverage %.2f should collapse vs unlimited %.2f", smallCov, unlCov)
	}
}

func TestMonotoneInTableSize(t *testing.T) {
	sizes := []int{32 * 1024, 256 * 1024, 2 * mem.MiB}
	prev := -1.0
	for _, s := range sizes {
		p := DefaultParams()
		p.TableBytes = s
		pr := MustNew(sim.PaperL1D(), p)
		cov, err := sim.RunCoverage(workload.ArraySweep(*sweep(5)), pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := cov.CoveragePct()
		t.Logf("%7dKB -> %.3f", s/1024, c)
		if c < prev-0.05 { // allow small non-monotonic wiggle
			t.Errorf("coverage decreased materially with larger table: %v -> %v", prev, c)
		}
		prev = c
	}
}

func TestUpsertConfidence(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), UnlimitedParams())
	sig := history.Signature(42)
	// state re-finds the entry after every mutation: lane indices are
	// stable between inserts but not across growth, so tests read through
	// find like the predictor itself does.
	state := func() (conf uint8, repl mem.Addr) {
		i := pr.find(sig)
		if i < 0 {
			t.Fatalf("signature %d missing", sig)
		}
		return pr.tab.conf(i), pr.tab.repl[i]
	}
	pr.upsert(sig, 0x1000)
	if c, r := state(); c != 2 || r != 0x1000 {
		t.Fatalf("initial entry = conf %d repl %#x", c, r)
	}
	pr.upsert(sig, 0x1000) // confirm: conf 3
	if c, _ := state(); c != 3 {
		t.Errorf("conf after confirm = %d", c)
	}
	pr.upsert(sig, 0x2000) // mismatch: conf 2
	pr.upsert(sig, 0x2000) // mismatch: conf 1
	pr.upsert(sig, 0x2000) // mismatch: conf 0
	if c, r := state(); c != 0 || r != 0x1000 {
		t.Errorf("after mismatches: conf=%d repl=%#x", c, r)
	}
	pr.upsert(sig, 0x2000) // conf 0: replace target
	if c, r := state(); r != 0x2000 || c != 2 {
		t.Errorf("replacement failed: conf %d repl %#x", c, r)
	}
}

func TestEarlyEvictionFeedback(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), UnlimitedParams())
	sig := history.Signature(7)
	pr.upsert(sig, 0x4000)
	pr.lastPred.put(0x8000, sig)
	pr.OnEarlyEviction(0x8000)
	if i := pr.find(sig); i < 0 || pr.tab.conf(i) != 0 {
		t.Errorf("conf after early eviction: want 0 (reset)")
	}
	pr.OnEarlyEviction(0xBEEF00) // unknown: no-op
}

// DBCP with unlimited storage must never do worse than a finite table on
// the same stream (a sanity relation used by the Figure 4 harness).
func TestUnlimitedDominates(t *testing.T) {
	mkSrc := func() *workload.ChaseConfig {
		return &workload.ChaseConfig{
			Base: 0x200000, Nodes: 8192, NodeSize: 64, ShuffleLayout: true, Iters: 5, PCBase: 0x10, Seed: 3,
		}
	}
	unl := MustNew(sim.PaperL1D(), UnlimitedParams())
	covU, _ := sim.RunCoverage(workload.PointerChase(*mkSrc()), unl, sim.Config{})
	fin := MustNew(sim.PaperL1D(), Params{TableBytes: 8 * 1024, EntryBytes: 5, Assoc: 8, ConfInit: 2, ConfMax: 3, ConfThresh: 2})
	covF, _ := sim.RunCoverage(workload.PointerChase(*mkSrc()), fin, sim.Config{})
	t.Logf("unlimited %.2f vs 8KB %.2f", covU.CoveragePct(), covF.CoveragePct())
	if covU.CoveragePct()+0.02 < covF.CoveragePct() {
		t.Error("unlimited DBCP must dominate a tiny table")
	}
}

// A finite table allocates lanes only for the sets a run touches: at
// Figure 4's largest size (32MB, 4M entries over 512K sets, 88MB of lanes
// if allocated up front) a short stream must cost a small fraction of
// that, while Entries still reports the nominal capacity.
func TestFiniteTableAllocatesTouchedSets(t *testing.T) {
	p := DefaultParams()
	p.TableBytes = 32 * mem.MiB
	src := workload.ArraySweep(*sweep(3))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr := MustNew(sim.PaperL1D(), p)
	cov, err := sim.RunCoverage(src, pr, sim.Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pr.Entries(), 512*1024*8; got != want {
		t.Errorf("entries = %d want %d", got, want)
	}
	// No set overflows on so short a stream, so the finite table holds
	// what the unlimited one holds and covers exactly as much.
	oracle, err := sim.RunCoverage(workload.ArraySweep(*sweep(3)), MustNew(sim.PaperL1D(), UnlimitedParams()), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Stats().Evictions != 0 || cov.CtxCoverage != oracle.CtxCoverage || cov.Prefetches != oracle.Prefetches {
		t.Errorf("32MB table: %d evictions, %+v and %d prefetches; unlimited %+v and %d",
			pr.Stats().Evictions, cov.CtxCoverage, cov.Prefetches, oracle.CtxCoverage, oracle.Prefetches)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d live entries, %.1f MB allocated", pr.TableEntries(), float64(allocated)/(1<<20))
	if allocated > 16<<20 {
		t.Errorf("allocated %.1f MB for %d live entries; untouched sets should cost no lanes",
			float64(allocated)/(1<<20), pr.TableEntries())
	}
}

// Lanes grow with the sets a run touches but never past the nominal
// capacity: a table small enough for a sweep to touch every set ends with
// lanes of exactly Entries() entries, below the first growth step's 1024
// and at an associativity that doubling from 1024 overshoots.
func TestFiniteLanesStopAtCapacity(t *testing.T) {
	for _, tc := range []struct{ bytes, assoc int }{{2 * mem.KiB, 8}, {32 * mem.KiB, 6}} {
		p := DefaultParams()
		p.TableBytes, p.Assoc = tc.bytes, tc.assoc
		pr := MustNew(sim.PaperL1D(), p)
		if _, err := sim.RunCoverage(workload.ArraySweep(*sweep(3)), pr, sim.Config{}); err != nil {
			t.Fatal(err)
		}
		n, l := pr.Entries(), &pr.tab
		if len(l.sigs) != n {
			t.Errorf("%d-way %dKB: sweep touched %d of %d entries' sets", tc.assoc, tc.bytes/mem.KiB, len(l.sigs), n)
		}
		if caps := []int{cap(l.sigs), cap(l.meta), cap(l.lru), cap(l.repl)}; slices.Max(caps) != n {
			t.Errorf("%d-way %dKB: lane capacities %v, want %d", tc.assoc, tc.bytes/mem.KiB, caps, n)
		}
	}
}
