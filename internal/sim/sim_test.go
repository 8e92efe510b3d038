package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestNullPredictorBaseline(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 4096, Stride: 64, Iters: 3, PCBase: 0x10,
	})
	cov, err := RunCoverage(src, Null{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Refs != 3*4096 {
		t.Errorf("refs = %d", cov.Refs)
	}
	// With no predictor, main == shadow: no correct, incorrect, or early.
	if cov.Correct != 0 || cov.Incorrect != 0 || cov.Early != 0 || cov.Prefetches != 0 {
		t.Errorf("null predictor produced activity: %+v", cov.CtxCoverage)
	}
	if cov.Opportunity != cov.Train {
		t.Errorf("opportunity %d != train %d for null predictor", cov.Opportunity, cov.Train)
	}
	// A 256KB footprint stream through a 64KB L1 misses every block access.
	if cov.Opportunity != cov.MainL1Misses {
		t.Errorf("opportunity %d != main misses %d", cov.Opportunity, cov.MainL1Misses)
	}
}

// nextBlock is a hand-written oracle for pure sequential streams: on every
// access it prefetches the block one line ahead, replacing the current
// block's predecessor region — it should eliminate nearly all misses of a
// single-pass sequential stream.
type nextBlock struct{ geo mem.Geometry }

func (nextBlock) Name() string { return "next-block-oracle" }

func (n nextBlock) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []Prediction) []Prediction {
	return append(preds, Prediction{Addr: n.geo.BlockAddr(ref.Addr) + 64})
}

func TestOracleCoversSequentialStream(t *testing.T) {
	cfg := Config{}
	l1 := PaperL1D()
	geo, _ := mem.NewGeometry(l1.BlockSize, l1.Sets())
	src := workload.StreamOnce(workload.StreamConfig{
		Base: 0x100000, Bytes: 1 << 20, Stride: 64, Passes: 2, PCBase: 0x10,
	})
	cov, err := RunCoverage(src, nextBlock{geo}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cov.CoveragePct(); got < 0.95 {
		t.Errorf("next-block oracle coverage = %.2f want > 0.95", got)
	}
	if cov.EarlyPct() > 0.05 {
		t.Errorf("oracle early rate = %.2f", cov.EarlyPct())
	}
}

// wrongBlock always prefetches a bogus block far away using the accessed
// block as victim: it must produce early evictions and incorrect
// classifications, never correct ones.
type wrongBlock struct{ geo mem.Geometry }

func (wrongBlock) Name() string { return "wrong-block" }

func (w wrongBlock) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []Prediction) []Prediction {
	blk := w.geo.BlockAddr(ref.Addr)
	return append(preds, Prediction{Addr: blk ^ 0x40000000, Victim: blk, UseVictim: true})
}

func TestWrongPredictorEarly(t *testing.T) {
	l1 := PaperL1D()
	geo, _ := mem.NewGeometry(l1.BlockSize, l1.Sets())
	// A small hot loop: the base system hits almost always; evicting the
	// just-accessed block forces early misses.
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x1000, Arrays: 1, Elems: 64, Stride: 64, Iters: 200, PCBase: 0x10,
	})
	cov, err := RunCoverage(src, wrongBlock{geo}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Correct != 0 {
		t.Errorf("wrong predictor got %d correct", cov.Correct)
	}
	if cov.Early == 0 {
		t.Error("evicting live blocks must cause early misses")
	}
}

func TestWrongPredictorIncorrect(t *testing.T) {
	l1 := PaperL1D()
	geo, _ := mem.NewGeometry(l1.BlockSize, l1.Sets())
	// A streaming sweep: every access is a base-system miss, and each set
	// carries a pending wrong prediction from the previous visit, so the
	// misses classify as incorrect.
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 16384, Stride: 64, Iters: 2, PCBase: 0x10,
	})
	cov, err := RunCoverage(src, wrongBlock{geo}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Correct != 0 {
		t.Errorf("wrong predictor got %d correct", cov.Correct)
	}
	if cov.Incorrect == 0 {
		t.Error("active wrong predictions at misses must classify as incorrect")
	}
	if cov.IncorrectPct() < 0.5 {
		t.Errorf("incorrect rate %.2f; nearly every miss should see a wrong pending prediction", cov.IncorrectPct())
	}
}

func TestCoverageWithL2(t *testing.T) {
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 1 << 15, Stride: 64, Iters: 2, PCBase: 0x10,
	})
	cov, err := RunCoverage(src, Null{}, Config{WithL2: true})
	if err != nil {
		t.Fatal(err)
	}
	// 2MB footprint: misses L1 (64KB) always and L2 (1MB) always.
	if cov.BaseL2Misses == 0 || cov.BaseL2Misses != cov.MainL2Misses {
		t.Errorf("L2 misses base=%d main=%d", cov.BaseL2Misses, cov.MainL2Misses)
	}
	if cov.L2CoveragePct() != 0 {
		t.Errorf("null L2 coverage = %v", cov.L2CoveragePct())
	}
}

func TestPerCtxSplit(t *testing.T) {
	mk := func(ctx uint8) trace.Source {
		return trace.Offset(workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 1, Elems: 2048, Stride: 64, Iters: 2, PCBase: 0x10,
		}), mem.Addr(ctx)*0x10000000, ctx)
	}
	src := trace.InterleaveQuanta(mk(0), mk(1), 500, 500, 0)
	cov, err := RunCoverage(src, Null{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cov.PerCtx[0].Opportunity == 0 || cov.PerCtx[1].Opportunity == 0 {
		t.Errorf("per-ctx opportunity = %+v", cov.PerCtx)
	}
	if cov.PerCtx[0].Opportunity+cov.PerCtx[1].Opportunity != cov.Opportunity {
		t.Error("per-ctx opportunities must sum to the total")
	}
}

func TestPctHelpers(t *testing.T) {
	c := CtxCoverage{}
	if c.CoveragePct() != 0 || c.IncorrectPct() != 0 || c.TrainPct() != 0 || c.EarlyPct() != 0 {
		t.Error("zero-opportunity percentages must be 0")
	}
	c = CtxCoverage{Opportunity: 100, Correct: 60, Incorrect: 10, Train: 30, Early: 5}
	if c.CoveragePct() != 0.6 || c.IncorrectPct() != 0.1 || c.TrainPct() != 0.3 || c.EarlyPct() != 0.05 {
		t.Errorf("percentages wrong: %+v", c)
	}
}

// The pending-prediction lane uses bit 0 of block addresses as its
// presence marker, so sub-word blocks (where bit 0 is a real address bit)
// must be rejected at construction rather than silently misclassified.
func TestCoverageRejectsSubWordBlocks(t *testing.T) {
	cfg := Config{L1: cache.Config{Name: "bit0", Size: 8, BlockSize: 1, Assoc: 2}}
	if _, err := RunCoverage(trace.NewSliceSource(nil), Null{}, cfg); err == nil {
		t.Fatal("BlockSize 1 must be rejected (pending lane steals bit 0)")
	}
}
