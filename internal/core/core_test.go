package core

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.SigCacheEntries = 1000 },
		func(p *Params) { p.SigCacheAssoc = 3 }, // 32768/3 not integral
		func(p *Params) { p.SigCacheAssoc = 0 },
		func(p *Params) { p.Frames = 100 },
		func(p *Params) { p.FragmentSigs = 1 },
		func(p *Params) { p.TransferUnit = 0 },
		func(p *Params) { p.TransferUnit = 1 << 20 },
		func(p *Params) { p.HeadLookahead = 0 },
		func(p *Params) { p.WindowAhead = 1 },
		func(p *Params) { p.ConfThresh = 9 },
		func(p *Params) { p.SigBytes = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestOnChipBudgetMatchesPaper(t *testing.T) {
	p := DefaultParams()
	sig, seq := p.OnChipBits()
	// Paper Section 5.6: ~204KB signature cache (42-bit entries), ~10KB
	// sequence tag array, 214KB total on-chip.
	if sig/8/1024 < 150 || sig/8/1024 > 210 {
		t.Errorf("signature cache = %dKB, expected paper-order ~170-205KB", sig/8/1024)
	}
	if seq/8/1024 < 8 || seq/8/1024 > 20 {
		t.Errorf("sequence tag array = %dKB, expected ~10-16KB", seq/8/1024)
	}
	if p.OffChipBytes() != 4096*8192*5 {
		t.Errorf("off-chip = %d want 160MB", p.OffChipBytes())
	}
}

func TestSigCacheBasics(t *testing.T) {
	sc := newSigCache(8, 2)
	sc.insert(sigEntry{sig: 1, repl: 0x100, frame: 0, off: 0, conf: 2})
	e := sc.lookup(1)
	if e < 0 || sc.meta[e].repl != 0x100 {
		t.Fatal("lookup after insert failed")
	}
	if sc.lookup(2) >= 0 {
		t.Error("phantom hit")
	}
	// Same (sig, frame, off) refreshes in place rather than duplicating.
	sc.insert(sigEntry{sig: 1, repl: 0x200, frame: 0, off: 0, conf: 3})
	if sc.validCount() != 1 {
		t.Errorf("duplicate insert created %d entries", sc.validCount())
	}
	if sc.meta[sc.lookup(1)].repl != 0x200 {
		t.Error("refresh did not update")
	}
}

func TestSigCacheFIFOWithinSet(t *testing.T) {
	sc := newSigCache(8, 2) // 4 sets; sigs 0,4,8 share set 0
	sc.insert(sigEntry{sig: 0, frame: 1, off: 1})
	sc.insert(sigEntry{sig: 4, frame: 1, off: 2})
	// Re-inserting sig 0 refreshes it but FIFO order is by insertion time,
	// so inserting sig 8 evicts... the oldest fifo stamp. After refresh of
	// sig 0 it is newest; sig 4 is oldest.
	sc.insert(sigEntry{sig: 0, frame: 1, off: 1})
	sc.insert(sigEntry{sig: 8, frame: 1, off: 3})
	if sc.lookup(4) >= 0 {
		t.Error("FIFO should have evicted sig 4")
	}
	if sc.lookup(0) < 0 || sc.lookup(8) < 0 {
		t.Error("wrong entries evicted")
	}
}

func TestSigCacheInvalidate(t *testing.T) {
	sc := newSigCache(8, 2)
	sc.insert(sigEntry{sig: 3, frame: 2, off: 5})
	sc.invalidate(3, 2, 5)
	if sc.lookup(3) >= 0 {
		t.Error("invalidate failed")
	}
	// Invalidating a non-resident entry is a no-op.
	sc.invalidate(3, 2, 5)
}

// End-to-end: on a perfectly repeating sweep, LT-cords must reach high
// coverage once trained (first iteration is training; five more follow).
func TestLTCordsCoversRepeatingSweep(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 6, PCBase: 0x10,
	})
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	cov, err := sim.RunCoverage(src, pr, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweep: coverage=%.1f%% incorrect=%.1f%% train=%.1f%% early=%.1f%% (opp=%d)",
		cov.CoveragePct()*100, cov.IncorrectPct()*100, cov.TrainPct()*100, cov.EarlyPct()*100, cov.Opportunity)
	st := pr.Stats()
	t.Logf("stats: %+v", st)
	if cov.CoveragePct() < 0.6 {
		t.Errorf("coverage %.2f too low on perfectly correlated sweep", cov.CoveragePct())
	}
	if st.Recorded == 0 || st.StreamedSigs == 0 || st.HeadActivations == 0 {
		t.Error("streaming machinery did not engage")
	}
	if cov.EarlyPct() > 0.15 {
		t.Errorf("early rate %.2f too high", cov.EarlyPct())
	}
}

// A shuffled pointer chase is the address-correlation showcase: delta
// prefetchers see noise, LT-cords should still cover most misses.
func TestLTCordsCoversShuffledChase(t *testing.T) {
	src := workload.PointerChase(workload.ChaseConfig{
		Base: 0x100000, Nodes: 16384, NodeSize: 64, ShuffleLayout: true, Iters: 6, PCBase: 0x10, Seed: 11,
	})
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	cov, err := sim.RunCoverage(src, pr, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chase: coverage=%.1f%% train=%.1f%% early=%.1f%%", cov.CoveragePct()*100, cov.TrainPct()*100, cov.EarlyPct()*100)
	if cov.CoveragePct() < 0.55 {
		t.Errorf("coverage %.2f too low on shuffled chase", cov.CoveragePct())
	}
}

// Hashed accesses have no temporal correlation: LT-cords must stay quiet
// (low coverage is fine, but it must not wreck the cache with early
// evictions).
func TestLTCordsOnUncorrelatedAccesses(t *testing.T) {
	src := workload.HashAccess(workload.HashConfig{
		Base: 0x100000, Footprint: 1 << 21, Refs: 400000, PCs: 16, PCBase: 0x10, Seed: 3,
	})
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	cov, err := sim.RunCoverage(src, pr, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hash: coverage=%.1f%% early=%.1f%%", cov.CoveragePct()*100, cov.EarlyPct()*100)
	if cov.CoveragePct() > 0.15 {
		t.Errorf("implausible coverage %.2f on uncorrelated stream", cov.CoveragePct())
	}
	if cov.EarlyPct() > 0.10 {
		t.Errorf("early rate %.2f on uncorrelated stream", cov.EarlyPct())
	}
}

// Determinism: identical runs produce identical stats.
func TestLTCordsDeterministic(t *testing.T) {
	run := func() (sim.Coverage, Stats) {
		src := workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 4096, Stride: 64, Iters: 4, PCBase: 0x10, Seed: 5,
		})
		pr := MustNew(sim.PaperL1D(), DefaultParams())
		cov, err := sim.RunCoverage(src, pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cov, pr.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if !reflect.DeepEqual(c1, c2) || s1 != s2 {
		t.Error("LT-cords runs are not deterministic")
	}
}

// A tiny signature cache cannot hold the window: coverage must degrade
// relative to the default (the Figure 9 effect).
func TestSigCacheSizeMatters(t *testing.T) {
	run := func(entries int) float64 {
		p := DefaultParams()
		p.SigCacheEntries = entries
		p.WindowAhead = entries / 4
		if p.WindowAhead < p.TransferUnit {
			p.WindowAhead = p.TransferUnit
		}
		src := workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 16384, Stride: 64, Iters: 5, PCBase: 0x10,
		})
		pr := MustNew(sim.PaperL1D(), p)
		cov, err := sim.RunCoverage(src, pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cov.CoveragePct()
	}
	smallCov := run(256)
	bigCov := run(32768)
	t.Logf("coverage: 256 entries %.2f, 32768 entries %.2f", smallCov, bigCov)
	if bigCov < smallCov+0.1 {
		t.Errorf("signature cache size should matter: small=%.2f big=%.2f", smallCov, bigCov)
	}
}

// Off-chip storage size matters: with too few frames the sequence is
// overwritten before it recurs (the Figure 10 effect).
func TestOffChipStorageMatters(t *testing.T) {
	run := func(frames int) float64 {
		p := DefaultParams()
		p.Frames = frames
		p.FragmentSigs = 2048
		src := workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 32768, Stride: 64, Iters: 5, PCBase: 0x10,
		})
		pr := MustNew(sim.PaperL1D(), p)
		cov, err := sim.RunCoverage(src, pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cov.CoveragePct()
	}
	// 2 arrays x 32768 blocks = 64K misses/iteration. 8 frames x 2048 sigs
	// = 16K signatures of storage: the sequence cannot fit.
	smallCov := run(8)
	bigCov := run(256) // 512K signatures: fits comfortably
	t.Logf("coverage: 8 frames %.2f, 256 frames %.2f", smallCov, bigCov)
	if bigCov < smallCov+0.2 {
		t.Errorf("off-chip capacity should matter: small=%.2f big=%.2f", smallCov, bigCov)
	}
}

func TestStringAndAccessors(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	if pr.Name() != "lt-cords" {
		t.Error("name")
	}
	if pr.OnChipBytes() != DefaultParams().OnChipBytes() {
		t.Error("on-chip bytes")
	}
	if pr.String() == "" {
		t.Error("String empty")
	}
	if pr.Params().Frames != 4096 {
		t.Error("params accessor")
	}
}

// OnEarlyEviction resets the predicting signature's confidence: a
// premature eviction manufactured a miss, so the signature must re-earn
// trust via demand verification.
func TestEarlyEvictionResetsConfidence(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	// Manufacture state: one frame with one signature, present in the
	// signature cache, and a lastPred entry pointing at it.
	pr.frames[0].sigs = []storedSig{{repl: 0x4000, sig: 77, conf: 3}}
	pr.sc.insert(sigEntry{sig: 77, repl: 0x4000, conf: 3, frame: 0, off: 0})
	pr.lastPred.put(0x8000, predLoc{0, 0})
	pr.OnEarlyEviction(0x8000)
	if got := pr.frames[0].sigs[0].conf; got != 0 {
		t.Errorf("off-chip conf = %d want 0", got)
	}
	if got := pr.sc.meta[pr.sc.lookup(history.Signature(77))].conf; got != 0 {
		t.Errorf("on-chip conf = %d want 0", got)
	}
	// Unknown block: no-op.
	pr.OnEarlyEviction(0xDEAD000)
}

// The covered-episode path must not boost confidence: re-recording via
// OnPrefetchFill carries the counter unchanged (self-verification would be
// circular evidence).
func TestCoveredEpisodeCarriesConfidence(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	pr.sc.insert(sigEntry{sig: 123, repl: 0x4000, conf: 2, frame: 0, off: 0})
	pr.frames[0].sigs = []storedSig{{repl: 0x4000, sig: 123, conf: 2}}
	pr.carryAndRecord(0, history.Signature(123), 0x4000)
	if got := pr.sc.meta[pr.sc.lookup(history.Signature(123))].conf; got != 2 {
		t.Errorf("on-chip conf after carry = %d want 2 (unchanged)", got)
	}
	// The demand path with matching evidence does boost.
	pr.verifyAndRecord(0, history.Signature(123), 0x4000)
	if got := pr.sc.meta[pr.sc.lookup(history.Signature(123))].conf; got != 3 {
		t.Errorf("on-chip conf after demand verify = %d want 3", got)
	}
}

// Truncated signatures (the paper's 23-bit timing configuration) still
// cover a repeating sweep; very narrow ones degrade via collisions.
func TestSignatureTruncation(t *testing.T) {
	run := func(bits uint) (float64, float64) {
		p := DefaultParams()
		p.SigBits = bits
		src := workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 16384, Stride: 64, Iters: 5, PCBase: 0x10,
		})
		pr := MustNew(sim.PaperL1D(), p)
		cov, err := sim.RunCoverage(src, pr, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return cov.CoveragePct(), cov.EarlyPct()
	}
	c23, _ := run(23)
	c32, _ := run(0)
	t.Logf("coverage: 23-bit %.2f vs 32-bit %.2f", c23, c32)
	if c23 < c32-0.15 {
		t.Errorf("23-bit signatures should nearly match 32-bit: %.2f vs %.2f", c23, c32)
	}
	if _, err := New(sim.PaperL1D(), func() Params { p := DefaultParams(); p.SigBits = 4; return p }()); err == nil {
		t.Error("absurdly narrow signatures must be rejected")
	}
}

// The into-L2 ablation only issues L2-targeted predictions: L1-level
// coverage vanishes while off-chip misses still get covered.
func TestTargetL2Ablation(t *testing.T) {
	p := DefaultParams()
	p.TargetL2 = true
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 2, Elems: 32768, Stride: 64, Iters: 5, PCBase: 0x10,
	})
	pr := MustNew(sim.PaperL1D(), p)
	cov, err := sim.RunCoverage(src, pr, sim.Config{WithL2: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("into-L2: L1 coverage %.2f, L2 coverage %.2f", cov.CoveragePct(), cov.L2CoveragePct())
	if cov.CoveragePct() > 0.05 {
		t.Errorf("into-L2 must not produce L1 coverage, got %.2f", cov.CoveragePct())
	}
	if cov.L2CoveragePct() < 0.4 {
		t.Errorf("into-L2 should cover off-chip misses, got %.2f", cov.L2CoveragePct())
	}
}

func BenchmarkLTCordsPerRef(b *testing.B) {
	src := trace.NewPuller(workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 1 << 20, PCBase: 0x10,
	}))
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	c := cache.MustNew(sim.PaperL1D())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _ := src.Next()
		res := c.Access(ref.Addr, false, uint64(i))
		var ev *cache.EvictInfo
		if res.Evicted.Valid {
			ev = &res.Evicted
		}
		pr.OnAccess(ref, res.Hit, ev, nil)
	}
}
