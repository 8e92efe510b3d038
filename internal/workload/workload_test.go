package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should differ")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Cycle produces a successor array that is one single cycle
// visiting all n elements.
func TestCycleIsSingleCycle(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 2
		next := NewRNG(seed).Cycle(n)
		seen := make([]bool, n)
		cur := int32(0)
		for i := 0; i < n; i++ {
			if seen[cur] {
				return false
			}
			seen[cur] = true
			cur = next[cur]
		}
		return cur == 0 // back to start after exactly n steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestShufflesPinned pins the exact outputs of Cycle and Perm for one
// seed. Every pointer-chasing layout is built from them, so a changed
// shuffle fails here, in this package, and not only in the full-run pin.
func TestShufflesPinned(t *testing.T) {
	if got, want := NewRNG(1).Cycle(16), []int32{8, 7, 4, 9, 13, 12, 10, 5, 14, 6, 2, 1, 3, 15, 11, 0}; !slices.Equal(got, want) {
		t.Errorf("NewRNG(1).Cycle(16) = %v, want %v", got, want)
	}
	if got, want := NewRNG(1).Perm(16), []int32{2, 11, 10, 6, 7, 13, 14, 0, 12, 5, 15, 9, 3, 8, 4, 1}; !slices.Equal(got, want) {
		t.Errorf("NewRNG(1).Perm(16) = %v, want %v", got, want)
	}
}

func TestGapsClamping(t *testing.T) {
	rng := NewRNG(3)
	g := Gaps{Mean: 2, Jitter: 5}
	for i := 0; i < 1000; i++ {
		v := g.next(rng)
		if v > 7 {
			t.Fatalf("gap %d out of range", v)
		}
	}
	big := Gaps{Mean: 300}
	if big.next(rng) != 255 {
		t.Error("gap must clamp at 255")
	}
}

func TestArraySweepShape(t *testing.T) {
	c := SweepConfig{Base: 0x1000, Arrays: 2, Elems: 10, Stride: 8, Iters: 3, PCBase: 0x100}
	refs := trace.Collect(ArraySweep(c), 0)
	if len(refs) != 2*10*3 {
		t.Fatalf("refs = %d want 60", len(refs))
	}
	// First iteration: array 0 elems 0..9, then array 1.
	if refs[0].Addr != 0x1000 || refs[1].Addr != 0x1008 {
		t.Errorf("first refs at %#x, %#x", refs[0].Addr, refs[1].Addr)
	}
	if refs[10].Addr != 0x1000+80 {
		t.Errorf("array 1 starts at %#x", refs[10].Addr)
	}
	// Iterations repeat the same address sequence.
	for i := 0; i < 20; i++ {
		if refs[i].Addr != refs[i+20].Addr || refs[i].PC != refs[i+20].PC {
			t.Fatalf("iteration 2 diverges at ref %d", i)
		}
	}
}

func TestArraySweepInterleaved(t *testing.T) {
	c := SweepConfig{Base: 0, Arrays: 2, Elems: 3, Stride: 4, Iters: 1, Interleave: true, PCBase: 0}
	refs := trace.Collect(ArraySweep(c), 0)
	want := []mem.Addr{0, 12, 4, 16, 8, 20} // a[0] b[0] a[1] b[1] a[2] b[2]
	for i, w := range want {
		if refs[i].Addr != w {
			t.Errorf("ref %d addr %#x want %#x", i, refs[i].Addr, w)
		}
	}
}

func TestPerturbedSweepZeroPerturbIsPeriodic(t *testing.T) {
	c := PerturbedSweepConfig{Base: 0, Elems: 50, Stride: 64, Iters: 3, ShuffledStart: true, Seed: 9}
	refs := trace.Collect(PerturbedSweep(c), 0)
	if len(refs) != 150 {
		t.Fatalf("refs = %d", len(refs))
	}
	for i := 0; i < 50; i++ {
		if refs[i].Addr != refs[i+50].Addr {
			t.Fatal("zero perturbation must repeat the order exactly")
		}
	}
}

func TestPerturbedSweepVisitsAllElements(t *testing.T) {
	c := PerturbedSweepConfig{Base: 0, Elems: 64, Stride: 64, Iters: 4, PerturbFrac: 0.5, ShuffledStart: true, Seed: 5}
	src := trace.NewPuller(PerturbedSweep(c))
	for iter := 0; iter < 4; iter++ {
		seen := map[mem.Addr]bool{}
		for i := 0; i < 64; i++ {
			r, ok := src.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			seen[r.Addr] = true
		}
		if len(seen) != 64 {
			t.Fatalf("iteration %d visited %d distinct elements, want 64 (swaps must preserve the permutation)", iter, len(seen))
		}
	}
}

func TestPointerChaseVisitsAllNodes(t *testing.T) {
	c := ChaseConfig{Base: 0x100000, Nodes: 100, NodeSize: 64, ShuffleLayout: true, Iters: 2, Seed: 3}
	src := trace.NewPuller(PointerChase(c))
	seen := map[mem.Addr]bool{}
	var first []mem.Addr
	for i := 0; i < 100; i++ {
		r, ok := src.Next()
		if !ok {
			t.Fatal("early end")
		}
		if !r.Dep {
			t.Fatal("chase loads must be dependent")
		}
		seen[r.Addr] = true
		first = append(first, r.Addr)
	}
	if len(seen) != 100 {
		t.Fatalf("first traversal saw %d distinct nodes", len(seen))
	}
	// Second iteration (no perturbation) repeats the same order.
	for i := 0; i < 100; i++ {
		r, _ := src.Next()
		if r.Addr != first[i] {
			t.Fatalf("iteration 2 diverges at step %d", i)
		}
	}
}

func TestPointerChaseFieldRefs(t *testing.T) {
	c := ChaseConfig{Base: 0, Nodes: 10, NodeSize: 64, FieldRefs: 2, Iters: 1, Seed: 1}
	refs := trace.Collect(PointerChase(c), 0)
	if len(refs) != 30 {
		t.Fatalf("refs = %d want 30 (10 nodes x (1 chase + 2 fields))", len(refs))
	}
	if !refs[0].Dep || refs[1].Dep || refs[2].Dep {
		t.Error("only the chase load should be dependent")
	}
	// Field refs stay inside the node.
	base := refs[0].Addr
	if refs[1].Addr < base || refs[1].Addr >= base+64 {
		t.Errorf("field ref escaped node: %#x", refs[1].Addr)
	}
}

func TestTreeWalkPreorderIsSequential(t *testing.T) {
	c := TreeConfig{Base: 0x4000, Depth: 5, NodeSize: 64, Layout: LayoutPreorder, Iters: 1}
	refs := trace.Collect(TreeWalk(c), 0)
	if len(refs) != 31 {
		t.Fatalf("refs = %d want 31", len(refs))
	}
	for i, r := range refs {
		want := mem.Addr(0x4000 + i*64)
		if r.Addr != want {
			t.Fatalf("preorder layout: visit %d at %#x want %#x", i, r.Addr, want)
		}
		if !r.Dep {
			t.Error("tree loads must be dependent")
		}
	}
}

func TestTreeWalkHeapLayoutCoversAllNodes(t *testing.T) {
	c := TreeConfig{Base: 0, Depth: 6, NodeSize: 64, Layout: LayoutHeap, Iters: 2}
	src := trace.NewPuller(TreeWalk(c))
	seen := map[mem.Addr]bool{}
	for i := 0; i < 63; i++ {
		r, _ := src.Next()
		seen[r.Addr] = true
	}
	if len(seen) != 63 {
		t.Errorf("heap layout first pass covered %d/63 nodes", len(seen))
	}
	// Second traversal repeats.
	r, ok := src.Next()
	if !ok || r.Addr != 0 {
		t.Errorf("second traversal should restart at root, got %#x,%v", r.Addr, ok)
	}
}

func TestTreeWalkShuffledDeterministic(t *testing.T) {
	mk := func() []trace.Ref {
		return trace.Collect(TreeWalk(TreeConfig{Base: 0, Depth: 4, NodeSize: 64, Layout: LayoutShuffled, Iters: 1, Seed: 11}), 0)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffled tree walk must be deterministic")
		}
	}
}

func TestHashAccessBounds(t *testing.T) {
	c := HashConfig{Base: 0x1000, Footprint: 4096, HotBytes: 256, HotFrac: 0.5, Refs: 5000, PCs: 4, Seed: 7}
	hotCount := 0
	src := trace.NewPuller(HashAccess(c))
	n := 0
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		n++
		if r.Addr < 0x1000 || r.Addr >= 0x1000+4096 {
			t.Fatalf("address %#x out of range", r.Addr)
		}
		if r.Addr < 0x1000+256 {
			hotCount++
		}
	}
	if n != 5000 {
		t.Fatalf("refs = %d", n)
	}
	// Roughly half plus the uniform spillover (256/4096 of the rest).
	frac := float64(hotCount) / 5000
	if frac < 0.45 || frac < 0.5*0.9 || frac > 0.65 {
		t.Errorf("hot fraction = %v", frac)
	}
}

func TestStreamOnceFreshRegions(t *testing.T) {
	c := StreamConfig{Base: 0, Bytes: 256, Stride: 64, Passes: 2}
	refs := trace.Collect(StreamOnce(c), 0)
	if len(refs) != 8 {
		t.Fatalf("refs = %d", len(refs))
	}
	if refs[4].Addr != 256 {
		t.Errorf("pass 2 must stream a fresh region, got %#x", refs[4].Addr)
	}
	cr := StreamConfig{Base: 0, Bytes: 256, Stride: 64, Passes: 2, Rewind: true}
	refs = trace.Collect(StreamOnce(cr), 0)
	if refs[4].Addr != 0 {
		t.Errorf("rewind pass 2 must restart, got %#x", refs[4].Addr)
	}
}

func TestMixWeightsAndTermination(t *testing.T) {
	mk := func(pc uint64, n int) trace.Source {
		var rs []trace.Ref
		for i := 0; i < n; i++ {
			rs = append(rs, trace.Ref{PC: mem.Addr(pc), Addr: mem.Addr(i)})
		}
		return trace.NewSliceSource(rs)
	}
	src := Mix(2, Component{mk(1, 100), 1}, Component{mk(2, 100), 3})
	counts := map[mem.Addr]int{}
	first40 := trace.Collect(trace.Limit(src, 40), 0)
	for _, r := range first40 {
		counts[r.PC]++
	}
	if counts[1] != 10 || counts[2] != 30 {
		t.Errorf("weighted mix = %v want 1:10 2:30", counts)
	}
}

func TestMixDrainsEverything(t *testing.T) {
	mk := func(n int) trace.Source {
		var rs []trace.Ref
		for i := 0; i < n; i++ {
			rs = append(rs, trace.Ref{Addr: mem.Addr(i)})
		}
		return trace.NewSliceSource(rs)
	}
	src := Mix(4, Component{mk(10), 1}, Component{mk(50), 1}, Component{mk(3), 2})
	if n := trace.Count(src); n != 63 {
		t.Errorf("mix drained %d refs want 63", n)
	}
}

func TestMixEmpty(t *testing.T) {
	if n := trace.Count(Mix(4)); n != 0 {
		t.Error("empty mix must be empty")
	}
}
