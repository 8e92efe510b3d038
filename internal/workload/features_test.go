package workload

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// The gather permutation is fixed: every iteration replays the identical
// address sequence (recurrence is what address correlation feeds on).
func TestGatherRecursAcrossIterations(t *testing.T) {
	c := SweepConfig{
		Base: 0x10000, Arrays: 1, Elems: 1024, Stride: 32, Iters: 3,
		GatherFrac: 0.25, PCBase: 0x40, Seed: 9,
	}
	refs := trace.Collect(ArraySweep(c), 0)
	if len(refs) != 3*1024 {
		t.Fatalf("refs = %d", len(refs))
	}
	for i := 0; i < 1024; i++ {
		if refs[i].Addr != refs[i+1024].Addr || refs[i].Addr != refs[i+2048].Addr {
			t.Fatalf("gathered sweep diverges at %d", i)
		}
	}
}

// Gathered accesses actually happen and stay inside the array.
func TestGatherScramblesWithinBounds(t *testing.T) {
	c := SweepConfig{
		Base: 0x10000, Arrays: 1, Elems: 4096, Stride: 64, Iters: 1,
		GatherFrac: 0.25, PCBase: 0x40, Seed: 5,
	}
	refs := trace.Collect(ArraySweep(c), 0)
	scrambled := 0
	for i, r := range refs {
		want := mem.Addr(0x10000 + i*64)
		if r.Addr != want {
			scrambled++
		}
		if r.Addr < 0x10000 || r.Addr >= 0x10000+4096*64 {
			t.Fatalf("gathered address %#x escapes the array", r.Addr)
		}
	}
	// Roughly a quarter of accesses divert (self-maps reduce it slightly).
	if scrambled < 700 || scrambled > 1100 {
		t.Errorf("scrambled %d of 4096, want ~1024", scrambled)
	}
}

// The gather permutation is windowed: a diverted access stays within one
// page-sized neighborhood of elements (TLB locality).
func TestGatherWindowLocality(t *testing.T) {
	stride := 64
	c := SweepConfig{
		Base: 0, Arrays: 1, Elems: 8192, Stride: stride, Iters: 1,
		GatherFrac: 0.5, PCBase: 0x40, Seed: 3,
	}
	window := mem.Addr(8192) // bytes
	refs := trace.Collect(ArraySweep(c), 0)
	for i, r := range refs {
		seq := mem.Addr(i * stride)
		base := seq / window * window
		if r.Addr/window*window != base {
			t.Fatalf("access %d at %#x left its window [%#x, ...)", i, r.Addr, base)
		}
	}
}

// Padding separates arrays so interleaved stencils do not alias sets.
func TestPadBlocksSeparatesArrays(t *testing.T) {
	c := SweepConfig{
		Base: 0, Arrays: 2, Elems: 512, Stride: 64, Iters: 1,
		Interleave: true, PadBlocks: 3, PCBase: 0x40,
	}
	refs := trace.Collect(ArraySweep(c), 0)
	// Interleaved: a[0], b[0]. Array b starts after 512*64 + 3*64 bytes.
	if refs[1].Addr != mem.Addr(512*64+3*64) {
		t.Errorf("b[0] at %#x want %#x", refs[1].Addr, 512*64+3*64)
	}
	// Same geometry as the paper's L1D: with padding, a[i] and b[i] land in
	// different sets.
	geo := mem.MustGeometry(64, 512)
	same := 0
	for i := 0; i+1 < len(refs); i += 2 {
		if geo.Index(refs[i].Addr) == geo.Index(refs[i+1].Addr) {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d interleaved pairs still alias to the same set", same)
	}
}

// Page-clustered chase: consecutive traversal steps stay on one page until
// it is exhausted, so TLB transitions are bounded by pages visited.
func TestPageLocalityChaseTransitions(t *testing.T) {
	c := ChaseConfig{
		Base: 0, Nodes: 4096, NodeSize: 64, ShuffleLayout: true,
		PageLocality: true, Iters: 1, Seed: 7,
	}
	refs := trace.Collect(PointerChase(c), 0)
	page := func(a mem.Addr) mem.Addr { return a >> 13 } // 8KB pages
	transitions := 0
	for i := 1; i < len(refs); i++ {
		if page(refs[i].Addr) != page(refs[i-1].Addr) {
			transitions++
		}
	}
	pages := 4096 * 64 / 8192
	if transitions > pages {
		t.Errorf("page transitions %d exceed page count %d: locality broken", transitions, pages)
	}
	// All nodes still visited exactly once.
	seen := map[mem.Addr]bool{}
	for _, r := range refs {
		seen[r.Addr] = true
	}
	if len(seen) != 4096 {
		t.Errorf("visited %d distinct nodes want 4096", len(seen))
	}
}

// Relocation perturbs addresses but preserves the permutation property:
// each iteration still visits every node slot exactly once.
func TestRelocatePreservesPermutation(t *testing.T) {
	c := ChaseConfig{
		Base: 0, Nodes: 512, NodeSize: 64, ShuffleLayout: true,
		Iters: 6, PerturbFrac: 0.2, Seed: 11,
	}
	src := trace.NewPuller(PointerChase(c))
	for iter := 0; iter < 6; iter++ {
		seen := map[mem.Addr]bool{}
		for i := 0; i < 512; i++ {
			r, ok := src.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			seen[r.Addr] = true
		}
		if len(seen) != 512 {
			t.Fatalf("iteration %d visited %d distinct nodes", iter, len(seen))
		}
	}
}

// Dep flag propagates through PerturbedSweep.
func TestPerturbedSweepDep(t *testing.T) {
	c := PerturbedSweepConfig{
		Base: 0, Elems: 64, Stride: 64, Iters: 1, Dep: true, PCBase: 0x40,
	}
	for _, r := range trace.Collect(PerturbedSweep(c), 0) {
		if !r.Dep {
			t.Fatal("Dep flag lost")
		}
	}
}
