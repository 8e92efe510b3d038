package workload

import (
	"testing"

	"repro/internal/trace"
)

// Every generator fills whole batches; this test pins one-element reads
// and larger batches to identical streams (same construction, same RNG
// consumption order) across the generator zoo and Mix.
func TestGeneratorBatchNextEquivalence(t *testing.T) {
	mks := map[string]func() trace.Source{
		"sweep": func() trace.Source {
			return ArraySweep(SweepConfig{
				Base: 0x1000, Arrays: 3, Elems: 700, Stride: 24, Iters: 2, Interleave: true,
				GatherFrac: 0.2, Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 5, PCBase: 0x40, Seed: 9,
			})
		},
		"perturbed": func() trace.Source {
			return PerturbedSweep(PerturbedSweepConfig{
				Base: 0x1000, Elems: 900, Stride: 64, Iters: 3, PerturbFrac: 0.1,
				ShuffledStart: true, Dep: true, Gap: Gaps{Mean: 2, Jitter: 1}, PCBase: 0x40, Seed: 9,
			})
		},
		"chase": func() trace.Source {
			return PointerChase(ChaseConfig{
				Base: 0x1000, Nodes: 500, NodeSize: 64, ShuffleLayout: true, PageLocality: true,
				FieldRefs: 3, Iters: 2, PerturbFrac: 0.05, Gap: Gaps{Mean: 4, Jitter: 2},
				StoreEvery: 7, PCBase: 0x40, Seed: 9,
			})
		},
		"tree": func() trace.Source {
			return TreeWalk(TreeConfig{
				Base: 0x1000, Depth: 9, NodeSize: 64, Layout: LayoutShuffled, Iters: 2,
				Gap: Gaps{Mean: 3, Jitter: 1}, PCBase: 0x40, Seed: 9,
			})
		},
		"hash": func() trace.Source {
			return HashAccess(HashConfig{
				Base: 0x1000, Footprint: 1 << 16, HotBytes: 1 << 12, HotFrac: 0.8,
				Refs: 2000, PCs: 8, Gap: Gaps{Mean: 2, Jitter: 2}, StoreEvery: 4, PCBase: 0x40, Seed: 9,
			})
		},
		"stream": func() trace.Source {
			return StreamOnce(StreamConfig{
				Base: 0x1000, Bytes: 1 << 15, Stride: 64, Passes: 3, PCBase: 0x40, Seed: 9,
			})
		},
		"mix": func() trace.Source {
			a := ArraySweep(SweepConfig{Base: 0x1000, Arrays: 1, Elems: 600, Stride: 64, Iters: 2, PCBase: 0x40, Seed: 3})
			b := HashAccess(HashConfig{Base: 0x80000, Footprint: 1 << 14, Refs: 700, PCs: 4, PCBase: 0x80, Seed: 4})
			return Mix(32, Component{a, 2}, Component{b, 1})
		},
	}
	read := func(src trace.Source, batch int) []trace.Ref {
		var out []trace.Ref
		buf := make([]trace.Ref, batch)
		for {
			n := src.ReadRefs(buf)
			if n == 0 {
				return out
			}
			out = append(out, buf[:n]...)
		}
	}
	for name, mk := range mks {
		want := read(mk(), 1)
		for _, batch := range []int{7, trace.DefaultBatch} {
			got := read(mk(), batch)
			if len(want) != len(got) {
				t.Fatalf("%s: one-element reads %d refs, batch %d reads %d refs", name, len(want), batch, len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: ref %d differs: one-element %+v, batch %d %+v", name, i, want[i], batch, got[i])
				}
			}
		}
	}
}
