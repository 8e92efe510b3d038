package trace

import (
	"testing"

	"repro/internal/mem"
)

// drainBatch reads src through ReadRefs with the given batch size.
func drainBatch(src Source, batch int) []Ref {
	var out []Ref
	buf := make([]Ref, batch)
	for {
		n := src.ReadRefs(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func refsEqual(t *testing.T, name string, want, got []Ref) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch: want %d refs, batch path %d refs", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: ref %d differs: want %+v, batch path %+v", name, i, want[i], got[i])
		}
	}
}

// testRefs builds a deterministic, codec-stressing reference sequence:
// positive and negative PC/addr deltas, both kinds, all ctx values, gaps.
func testRefs(n int) []Ref {
	refs := make([]Ref, n)
	pc, addr := mem.Addr(0x400000), mem.Addr(0x10000000)
	for i := range refs {
		if i%3 == 0 {
			pc -= mem.Addr(i % 7 * 4)
		} else {
			pc += mem.Addr(i % 5 * 4)
		}
		if i%4 == 0 {
			addr -= mem.Addr(i % 11 * 64)
		} else {
			addr += mem.Addr(i % 13 * 8)
		}
		refs[i] = Ref{
			PC: pc, Addr: addr,
			Kind: Kind(i % 2), Gap: uint8(i % 251),
			Dep: i%5 == 0, Ctx: uint8(i % 4),
		}
	}
	return refs
}

// Every combinator must yield the same stream whatever the batch size:
// one-element reads against pathological batch sizes (prime, larger than
// the stream).
func TestBatchNextEquivalence(t *testing.T) {
	refs := testRefs(1000)
	sources := map[string]func() Source{
		"slice":  func() Source { return NewSliceSource(refs) },
		"limit":  func() Source { return Limit(NewSliceSource(refs), 137) },
		"offset": func() Source { return Offset(NewSliceSource(refs), 0x1000, 2) },
		"interleave": func() Source {
			return InterleaveQuanta(NewSliceSource(refs[:500]), NewSliceSource(refs[500:]), 50, 30, 0)
		},
		"interleaveN": func() Source {
			return InterleaveQuantaN(
				[]Source{NewSliceSource(refs[:300]), NewSliceSource(refs[300:650]), NewSliceSource(refs[650:])},
				[]uint64{40, 25, 60}, 0)
		},
	}
	for name, mk := range sources {
		want := drainBatch(mk(), 1)
		for _, batch := range []int{7, 64, 2048} {
			refsEqual(t, name, want, drainBatch(mk(), batch))
		}
	}
}
