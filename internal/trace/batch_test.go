package trace

import (
	"bytes"
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

// The codec's batch decode must round-trip the input exactly at any batch
// size, one-element reads included.
func TestCodecBatchEquivalence(t *testing.T) {
	refs := testRefs(5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRefs(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	for _, batch := range []int{1, 17, 512} {
		rBatch, err := NewReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatal(err)
		}
		refsEqual(t, "codec/batch", refs, drainBatch(rBatch, batch))
		if rBatch.Err() != nil {
			t.Fatal(rBatch.Err())
		}
	}
}

// TestCodecWideCtx round-trips the full uint8 context space: contexts 0-3
// use the compact flags encoding, larger ones the extended-ctx byte, and
// neither may truncate (a consolidation mix recorded to disk must replay
// with every shard tag intact).
func TestCodecWideCtx(t *testing.T) {
	var refs []Ref
	for i, ctx := range []uint8{0, 1, 3, 4, 5, 7, 8, 100, 127, 128, 254, 255} {
		refs = append(refs, Ref{
			PC: mem.Addr(0x400000 + i*4), Addr: mem.Addr(uint64(ctx)<<32 | uint64(i*64)),
			Kind: Kind(i % 2), Gap: uint8(i), Dep: i%3 == 0, Ctx: ctx,
		})
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRefs(refs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 5, 64} {
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		refsEqual(t, "codec/widectx", refs, drainBatch(r, batch))
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes through two paths: (1) interpret
// them as reference fields, encode, decode, and demand exact round-trip
// agreement; (2) interpret them as a raw trace stream and
// demand the reader fails cleanly (error, not panic) on corruption.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Path 1: bytes -> refs -> encode -> decode.
		const stride = 20 // 8 pc + 8 addr + kind + gap + flags + ctx
		var refs []Ref
		for i := 0; i+stride <= len(data); i += stride {
			d := data[i : i+stride]
			var pc, addr uint64
			for j := 0; j < 8; j++ {
				pc = pc<<8 | uint64(d[j])
				addr = addr<<8 | uint64(d[8+j])
			}
			refs = append(refs, Ref{
				PC: mem.Addr(pc), Addr: mem.Addr(addr),
				Kind: Kind(d[16] & 1), Gap: d[17],
				Dep: d[18]&1 != 0, Ctx: d[19],
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRefs(refs); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got := drainBatch(r, 32)
		if err := r.Err(); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(got) != len(refs) {
			t.Fatalf("round-trip length: wrote %d read %d", len(refs), len(got))
		}
		for i := range refs {
			if refs[i] != got[i] {
				t.Fatalf("ref %d: wrote %+v read %+v", i, refs[i], got[i])
			}
		}

		// Path 2: bytes as a hostile trace stream must never panic.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			drainBatch(r, 16)
			_ = r.Err()
		}
	})
}
