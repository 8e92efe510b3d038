package workload

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Scale selects workload size. Cache sizes are fixed (Table 1), so scale
// changes footprints of the large-working-set benchmarks and run lengths,
// not the hardware.
type Scale int

const (
	// Small is sized for unit tests and quick benches (~0.3-1M refs).
	Small Scale = iota
	// Medium is the default experiment scale (~1-4M refs).
	Medium
	// Large approaches the paper's proportions (~5-20M refs).
	Large
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale converts a name to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return Small, fmt.Errorf("workload: unknown scale %q (want small|medium|large)", s)
}

// fmul scales a footprint-like dimension for large-working-set benchmarks.
func fmul(s Scale, base int) int {
	switch s {
	case Medium:
		return base * 4
	case Large:
		return base * 12
	}
	return base
}

// imul scales iteration counts for fixed-footprint benchmarks.
func imul(s Scale, base int) int {
	switch s {
	case Medium:
		return base * 3
	case Large:
		return base * 10
	}
	return base
}

// rmul scales reference budgets for open-ended (hash) benchmarks.
func rmul(s Scale, base uint64) uint64 {
	switch s {
	case Medium:
		return base * 3
	case Large:
		return base * 10
	}
	return base
}

// CorrClass is the temporal-correlation class the paper's Figure 6 assigns
// to a benchmark; preset tests assert that generators land in their class.
type CorrClass uint8

const (
	// CorrPerfect: most cache misses repeat in exactly the same order.
	CorrPerfect CorrClass = iota
	// CorrPartial: a meaningful fraction (roughly 40-70%) of misses are
	// temporally correlated.
	CorrPartial
	// CorrNone: hashed/randomized accesses, little correlation.
	CorrNone
)

// String names the class.
func (c CorrClass) String() string {
	switch c {
	case CorrPerfect:
		return "perfect"
	case CorrPartial:
		return "partial"
	case CorrNone:
		return "none"
	}
	return "?"
}

// Preset is a named synthetic benchmark mirroring one paper benchmark's
// memory behaviour (footprint class, miss-rate band, correlation class,
// access idiom and dependence density). See DESIGN.md §5.
type Preset struct {
	// Name matches the paper benchmark (e.g. "mcf", "swim", "treeadd").
	Name string
	// Suite is "SPECint", "SPECfp" or "Olden".
	Suite string
	// Corr is the expected temporal-correlation class.
	Corr CorrClass
	// BranchMPKI is the branch misprediction density (mispredictions per
	// 1000 instructions) charged by the timing model.
	BranchMPKI float64
	// DepHeavy marks pointer-chasing benchmarks whose misses serialize.
	DepHeavy bool
	// build constructs the reference stream.
	build func(s Scale, seed uint64) trace.Source
}

// Source constructs the preset's reference stream at the given scale.
// The same (scale, seed) always produces the identical stream.
func (p Preset) Source(s Scale, seed uint64) trace.Source {
	return p.build(s, seed)
}

const baseAddr = mem.Addr(0x10000000)

// hot returns a fully-resident reuse component: a regular loop over a small
// region (mostly cache hits once warm). The loop is deterministic — real
// hot working sets are visited by loops, not at random — which matters for
// the predictors: random interleaved traffic would scramble each set's LRU
// state and with it the previous-occupant half of every last-touch
// signature.
func hot(bytes int, refs uint64, gap Gaps, pcBase mem.Addr, seed uint64) trace.Source {
	elems := bytes / 64
	if elems < 1 {
		elems = 1
	}
	iters := int(refs/uint64(elems)) + 1
	return trace.Limit(ArraySweep(SweepConfig{
		Base: baseAddr + 0x40000000, Arrays: 1, Elems: elems, Stride: 64,
		Iters: iters, Gap: gap, PCBase: pcBase, Seed: seed,
	}), refs)
}

var presets = []Preset{
	{
		Name: "ammp", Suite: "SPECfp", Corr: CorrPartial, BranchMPKI: 1.5,
		build: func(s Scale, seed uint64) trace.Source {
			sweep := PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: fmul(s, 24_000), Stride: 64, Iters: 6,
				PerturbFrac: 0.04, ShuffledStart: true, Dep: true,
				Gap: Gaps{Mean: 2, Jitter: 1}, StoreEvery: 6, PCBase: 0x1000, Seed: seed,
			})
			h := hot(32*mem.KiB, uint64(fmul(s, 24_000))*6*5, Gaps{Mean: 3, Jitter: 1}, 0x2000, seed+1)
			return Mix(64, Component{sweep, 1}, Component{h, 5})
		},
	},
	{
		Name: "applu", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.5,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: fmul(s, 32_000), Stride: 24, Iters: 5,
				GatherFrac: 0.12, Gap: Gaps{Mean: 5, Jitter: 2}, StoreEvery: 4, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "apsi", Suite: "SPECfp", Corr: CorrPartial, BranchMPKI: 1.0,
		build: func(s Scale, seed uint64) trace.Source {
			// Short non-recurring bursts: high perturbation keeps correlated
			// sequences short (the paper: "apsi exhibits sequences of
			// hundreds to thousands of last touches that do not recur").
			sweep := PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: 12_000, Stride: 64, Iters: imul(s, 12),
				PerturbFrac: 0.10, ShuffledStart: true, Dep: true,
				Gap: Gaps{Mean: 2, Jitter: 1}, PCBase: 0x1000, Seed: seed,
			})
			h := hot(32*mem.KiB, uint64(imul(s, 12))*12_000*10, Gaps{Mean: 3, Jitter: 2}, 0x2000, seed+1)
			return Mix(64, Component{sweep, 1}, Component{h, 10})
		},
	},
	{
		Name: "art", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.8,
		build: func(s Scale, seed uint64) trace.Source {
			sweep := ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: fmul(s, 24_000), Stride: 64, Iters: 6,
				Interleave: true, PadBlocks: 3, GatherFrac: 0.35, Gap: Gaps{Mean: 6, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
			h := hot(32*mem.KiB, uint64(fmul(s, 24_000))*6, Gaps{Mean: 1, Jitter: 1}, 0x2000, seed+1)
			return Mix(128, Component{sweep, 2}, Component{h, 1})
		},
	},
	{
		Name: "bh", Suite: "Olden", Corr: CorrPerfect, BranchMPKI: 4.0, DepHeavy: true,
		build: func(s Scale, seed uint64) trace.Source {
			return PointerChase(ChaseConfig{
				Base: baseAddr, Nodes: fmul(s, 24_000), NodeSize: 64, ShuffleLayout: true,
				PageLocality: true, FieldRefs: 8, Iters: 4,
				Gap: Gaps{Mean: 5, Jitter: 3}, StoreEvery: 9, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "bzip2", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 6.0,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 3 * mem.MiB, HotBytes: 40 * mem.KiB, HotFrac: 0.95,
				Refs: rmul(s, 400_000), PCs: 24,
				Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "crafty", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 7.0,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 64 * mem.KiB, HotBytes: 32 * mem.KiB, HotFrac: 0.9,
				Refs: rmul(s, 400_000), PCs: 32,
				Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 8, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "em3d", Suite: "Olden", Corr: CorrPerfect, BranchMPKI: 2.5, DepHeavy: true,
		build: func(s Scale, seed uint64) trace.Source {
			chase := PointerChase(ChaseConfig{
				Base: baseAddr, Nodes: fmul(s, 32_000), NodeSize: 64, ShuffleLayout: true,
				PageLocality: true,
				Iters:        5, Gap: Gaps{Mean: 7, Jitter: 3}, PCBase: 0x1000, Seed: seed,
			})
			h := hot(32*mem.KiB, uint64(fmul(s, 32_000))*5/2, Gaps{Mean: 1, Jitter: 1}, 0x2000, seed+1)
			return Mix(128, Component{chase, 2}, Component{h, 1})
		},
	},
	{
		Name: "eon", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 3.0,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 64 * mem.KiB, HotBytes: 32 * mem.KiB, HotFrac: 0.95,
				Refs: rmul(s, 350_000), PCs: 48,
				Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 6, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "equake", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.7,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 3, Elems: fmul(s, 24_000), Stride: 16, Iters: 5,
				Interleave: true, PadBlocks: 3, GatherFrac: 0.1, Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "facerec", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.9,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: fmul(s, 24_000), Stride: 16, Iters: 5,
				Gap: Gaps{Mean: 7, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "fma3d", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 1.2,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 4, Elems: fmul(s, 32_000), Stride: 8, Iters: 3,
				Interleave: true, PadBlocks: 3, Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "galgel", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.6,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: 64_000, Stride: 16, Iters: imul(s, 2),
				GatherFrac: 0.1, Gap: Gaps{Mean: 4, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "gap", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 2.0,
		build: func(s Scale, seed uint64) trace.Source {
			// Fresh-region streaming: regular layout, no reuse. Delta
			// correlation prefetches it; address correlation cannot.
			stream := StreamOnce(StreamConfig{
				Base: baseAddr, Bytes: fmul(s, 512*mem.KiB), Stride: 64, Passes: 3,
				Gap: Gaps{Mean: 6, Jitter: 3}, PCBase: 0x1000, Seed: seed,
			})
			streamRefs := uint64(fmul(s, 512*mem.KiB) / 64 * 3)
			h := hot(48*mem.KiB, streamRefs*24, Gaps{Mean: 4, Jitter: 2}, 0x2000, seed+1)
			return Mix(64, Component{stream, 1}, Component{h, 24})
		},
	},
	{
		Name: "gcc", Suite: "SPECint", Corr: CorrPerfect, BranchMPKI: 5.0,
		build: func(s Scale, seed uint64) trace.Source {
			// Working set larger than L1 but inside L2 (Table 2: 38% L1
			// misses, only 3% L2 misses).
			return PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: 26_000, Stride: 24, Iters: imul(s, 5),
				PerturbFrac: 0.02, Gap: Gaps{Mean: 2, Jitter: 2}, StoreEvery: 5,
				PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "gzip", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 6.5,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 768 * mem.KiB, HotBytes: 48 * mem.KiB, HotFrac: 0.93,
				Refs: rmul(s, 400_000), PCs: 24,
				Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 6, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "lucas", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.4,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: fmul(s, 64_000), Stride: 32, Iters: 4,
				GatherFrac: 0.12, Gap: Gaps{Mean: 7, Jitter: 2}, StoreEvery: 4, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "mcf", Suite: "SPECint", Corr: CorrPartial, BranchMPKI: 8.0, DepHeavy: true,
		build: func(s Scale, seed uint64) trace.Source {
			// Two mutating pointer traversals over a footprint that exceeds
			// the 1MB L2 but largely fits 4MB (Table 3: 4MB L2 helps mcf).
			// The traversals alternate as whole phases (mcf's pricing and
			// refresh passes), so the global miss sequence recurs; a
			// fine-grained interleave of two independent miss-heavy
			// traversals would let their alignment drift across iterations
			// and destroy the temporal correlation that real phase
			// behaviour exhibits.
			const nodes = 32_000
			c1 := PointerChase(ChaseConfig{
				Base: baseAddr, Nodes: nodes, NodeSize: 64, ShuffleLayout: true,
				PageLocality: true, FieldRefs: 1,
				Iters: imul(s, 4), PerturbFrac: 0.02,
				Gap: Gaps{Mean: 4, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
			c2 := PointerChase(ChaseConfig{
				Base: baseAddr + 0x08000000, Nodes: nodes, NodeSize: 64, ShuffleLayout: true,
				PageLocality: true,
				Iters:        imul(s, 3), PerturbFrac: 0.02,
				Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 8, PCBase: 0x3000, Seed: seed + 2,
			})
			h := hot(24*mem.KiB, uint64(imul(s, 4))*nodes/2, Gaps{Mean: 1, Jitter: 1}, 0x2000, seed+1)
			// Phase-sized chunks: one c1 traversal is 2*nodes refs
			// (chase + field read), one c2 traversal is nodes refs.
			return Mix(nodes, Component{c1, 2}, Component{c2, 1}, Component{h, 1})
		},
	},
	{
		Name: "mesa", Suite: "SPECfp", Corr: CorrNone, BranchMPKI: 2.0,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 96 * mem.KiB, HotBytes: 40 * mem.KiB, HotFrac: 0.9,
				Refs: rmul(s, 350_000), PCs: 32,
				Gap: Gaps{Mean: 5, Jitter: 3}, StoreEvery: 7, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "mgrid", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.4,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 3, Elems: fmul(s, 32_000), Stride: 16, Iters: 4,
				GatherFrac: 0.1, Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "parser", Suite: "SPECint", Corr: CorrPartial, BranchMPKI: 5.5,
		build: func(s Scale, seed uint64) trace.Source {
			sweep := PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: 24_000, Stride: 64, Iters: imul(s, 2),
				PerturbFrac: 0.03, ShuffledStart: true, Dep: true,
				Gap: Gaps{Mean: 2, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
			h := hot(56*mem.KiB, uint64(imul(s, 2))*24_000*15, Gaps{Mean: 3, Jitter: 2}, 0x2000, seed+1)
			return Mix(48, Component{sweep, 1}, Component{h, 15})
		},
	},
	{
		Name: "perlbmk", Suite: "SPECint", Corr: CorrPartial, BranchMPKI: 4.5,
		build: func(s Scale, seed uint64) trace.Source {
			sweep := PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: 10_000, Stride: 64, Iters: imul(s, 3),
				PerturbFrac: 0.05, Gap: Gaps{Mean: 3, Jitter: 2}, PCBase: 0x1000, Seed: seed,
			})
			h := hot(40*mem.KiB, uint64(imul(s, 3))*10_000*24, Gaps{Mean: 3, Jitter: 2}, 0x2000, seed+1)
			return Mix(48, Component{sweep, 1}, Component{h, 24})
		},
	},
	{
		Name: "sixtrack", Suite: "SPECfp", Corr: CorrNone, BranchMPKI: 1.0,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 96 * mem.KiB, HotBytes: 64 * mem.KiB, HotFrac: 0.97,
				Refs: rmul(s, 350_000), PCs: 24,
				Gap: Gaps{Mean: 4, Jitter: 2}, StoreEvery: 7, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "swim", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.3,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 3, Elems: fmul(s, 32_000), Stride: 32, Iters: 5,
				Interleave: true, PadBlocks: 3, GatherFrac: 0.12, Gap: Gaps{Mean: 7, Jitter: 2}, StoreEvery: 4, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "treeadd", Suite: "Olden", Corr: CorrPerfect, BranchMPKI: 3.0, DepHeavy: true,
		build: func(s Scale, seed uint64) trace.Source {
			depth := 17
			if s == Small {
				depth = 15
			}
			if s == Large {
				depth = 19
			}
			tree := TreeWalk(TreeConfig{
				Base: baseAddr, Depth: depth, NodeSize: 64, Layout: LayoutPreorder,
				Iters: 4, Gap: Gaps{Mean: 6, Jitter: 3}, PCBase: 0x1000, Seed: seed,
			})
			nodes := uint64(1<<uint(depth)) - 1
			h := hot(32*mem.KiB, nodes*4*11, Gaps{Mean: 6, Jitter: 3}, 0x2000, seed+1)
			return Mix(64, Component{tree, 1}, Component{h, 11})
		},
	},
	{
		Name: "twolf", Suite: "SPECint", Corr: CorrNone, BranchMPKI: 7.5,
		build: func(s Scale, seed uint64) trace.Source {
			return HashAccess(HashConfig{
				Base: baseAddr, Footprint: 5 * mem.MiB / 2, HotBytes: 32 * mem.KiB, HotFrac: 0.82,
				Refs: rmul(s, 400_000), PCs: 32,
				Gap: Gaps{Mean: 2, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
	{
		Name: "vortex", Suite: "SPECint", Corr: CorrPartial, BranchMPKI: 3.5,
		build: func(s Scale, seed uint64) trace.Source {
			sweep := PerturbedSweep(PerturbedSweepConfig{
				Base: baseAddr, Elems: 16_000, Stride: 64, Iters: imul(s, 3),
				PerturbFrac: 0.015, Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 4,
				PCBase: 0x1000, Seed: seed,
			})
			h := hot(40*mem.KiB, uint64(imul(s, 3))*16_000*14, Gaps{Mean: 3, Jitter: 2}, 0x2000, seed+1)
			return Mix(48, Component{sweep, 1}, Component{h, 14})
		},
	},
	{
		Name: "wupwise", Suite: "SPECfp", Corr: CorrPerfect, BranchMPKI: 0.8,
		build: func(s Scale, seed uint64) trace.Source {
			return ArraySweep(SweepConfig{
				Base: baseAddr, Arrays: 2, Elems: fmul(s, 96_000), Stride: 8, Iters: 2,
				GatherFrac: 0.12, Gap: Gaps{Mean: 3, Jitter: 2}, StoreEvery: 5, PCBase: 0x1000, Seed: seed,
			})
		},
	},
}

// Presets returns all 28 benchmark presets in the paper's Table 2 order
// (alphabetical, SPEC and Olden interleaved).
func Presets() []Preset {
	out := append([]Preset(nil), presets...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up a preset.
func ByName(name string) (Preset, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}
