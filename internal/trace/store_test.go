package trace

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
)

// randRefs builds a reproducible reference stream with full field
// coverage: extended contexts (>3), stores, deps, the whole gap range,
// and address/PC deltas from tiny to sign-flipping.
func randRefs(seed int64, n int) []Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]Ref, n)
	var pc, addr uint64 = 0x1000, 0x10000000
	for i := range refs {
		switch rng.Intn(4) {
		case 0:
			addr += 64
			pc += 4
		case 1:
			addr -= uint64(rng.Intn(1 << 20))
			pc = rng.Uint64()
		default:
			addr = rng.Uint64()
			pc += uint64(rng.Intn(256))
		}
		refs[i] = Ref{
			PC:   mem.Addr(pc),
			Addr: mem.Addr(addr),
			Kind: Kind(rng.Intn(2)),
			Gap:  uint8(rng.Intn(256)),
			Dep:  rng.Intn(2) == 1,
			Ctx:  uint8(rng.Intn(256)), // exercises the extended-ctx form
		}
	}
	return refs
}

// replayAll drains a cursor through mixed batch sizes (including
// one-element reads) to shake out boundary handling.
func replayAll(t *testing.T, c *Cursor) []Ref {
	t.Helper()
	var out []Ref
	sizes := []int{1, 3, DefaultBatch, 7, 64}
	buf := make([]Ref, DefaultBatch)
	for i := 0; ; i++ {
		b := buf[:sizes[i%len(sizes)]]
		n := c.ReadRefs(b)
		if n == 0 {
			break
		}
		out = append(out, b[:n]...)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return out
}

func TestMaterializeRoundTrip(t *testing.T) {
	for _, chunk := range []int{1, 7, 512, DefaultRefsPerChunk} {
		refs := randRefs(int64(chunk), 5000)
		m := MaterializeChunked(NewSliceSource(refs), chunk)
		if m.Refs() != uint64(len(refs)) {
			t.Fatalf("chunk %d: Refs = %d want %d", chunk, m.Refs(), len(refs))
		}
		wantChunks := (len(refs) + chunk - 1) / chunk
		if m.Chunks() != wantChunks {
			t.Fatalf("chunk %d: Chunks = %d want %d", chunk, m.Chunks(), wantChunks)
		}
		got := replayAll(t, m.Cursor())
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("chunk %d: replay diverged", chunk)
		}
		// A second independent cursor replays identically.
		if got2 := Collect(m.Cursor(), 0); !reflect.DeepEqual(got2, refs) {
			t.Fatalf("chunk %d: second cursor diverged", chunk)
		}
		// Stats match a direct observation pass.
		var want Stats
		for _, r := range refs {
			want.Observe(r)
		}
		if m.Stats() != want {
			t.Fatalf("chunk %d: Stats = %+v want %+v", chunk, m.Stats(), want)
		}
	}
}

func TestMaterializeEmpty(t *testing.T) {
	m := Materialize(NewSliceSource(nil))
	if m.Refs() != 0 || m.Chunks() != 0 || m.Bytes() != 0 {
		t.Fatalf("empty store = %d refs, %d chunks, %d bytes", m.Refs(), m.Chunks(), m.Bytes())
	}
	if n := Count(m.Cursor()); n != 0 {
		t.Fatalf("empty replay yielded %d refs", n)
	}
	path := filepath.Join(t.TempDir(), "empty.ltcx")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if n := Count(o.Cursor()); n != 0 {
		t.Fatalf("reopened empty store yielded %d refs", n)
	}
}

func TestCursorResetAndSeek(t *testing.T) {
	refs := randRefs(9, 1000)
	m := MaterializeChunked(NewSliceSource(refs), 100)
	c := m.Cursor()
	first := Collect(c, 0)
	c.Reset()
	second := Collect(c, 0)
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, refs) {
		t.Fatal("Reset replay diverged")
	}
}

// TestCursorAtChunkBoundaries pins chunk-range replay across delta-reset
// points: Cursors(n) ranges partition the stream with no overlap or gap at
// any n (the per-chunk delta reset makes every boundary an exact entry
// point), and range cursors stop at — never read past — their bound.
func TestCursorAtChunkBoundaries(t *testing.T) {
	const perChunk = 64
	refs := randRefs(21, 10*perChunk+17) // last chunk deliberately partial
	m := MaterializeChunked(NewSliceSource(refs), perChunk)

	// Cursors(n) partitions: concatenated ranges reproduce the stream for
	// n below, at, and beyond the chunk count.
	for _, n := range []int{1, 2, 3, m.Chunks(), m.Chunks() + 5} {
		var got []Ref
		curs := m.Cursors(n)
		if want := min(n, m.Chunks()); len(curs) != want {
			t.Fatalf("Cursors(%d) returned %d cursors, want %d", n, len(curs), want)
		}
		for _, c := range curs {
			got = append(got, replayAll(t, c)...)
		}
		if !reflect.DeepEqual(got, refs) {
			t.Fatalf("Cursors(%d): concatenated ranges diverge from the stream", n)
		}
	}

	// A range cursor stops at its bound and Reset rewinds to the range
	// start, not the stream start.
	curs := m.Cursors(3)
	mid := replayAll(t, curs[1])
	if len(mid) == 0 || len(mid) == len(refs) {
		t.Fatalf("middle range replayed %d refs", len(mid))
	}
	curs[1].Reset()
	if again := replayAll(t, curs[1]); !reflect.DeepEqual(again, mid) {
		t.Fatal("Reset on a range cursor did not rewind to the range start")
	}
}

// TestReplayStats pins the order-insensitive parallel fold: recomputed
// stats equal the encode-time stats at every worker count.
func TestReplayStats(t *testing.T) {
	refs := randRefs(33, 5000)
	m := MaterializeChunked(NewSliceSource(refs), 128)
	for _, workers := range []int{0, 1, 2, 7, 64, 1000} {
		got, err := m.ReplayStats(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != m.Stats() {
			t.Fatalf("ReplayStats(%d) = %+v, encode-time stats %+v", workers, got, m.Stats())
		}
	}
	empty := Materialize(NewSliceSource(nil))
	if st, err := empty.ReplayStats(4); err != nil || st != (Stats{}) {
		t.Fatalf("empty ReplayStats = %+v, %v", st, err)
	}
}

func TestStoreFileRoundTrip(t *testing.T) {
	refs := randRefs(17, 4096)
	m := MaterializeChunked(NewSliceSource(refs), 333)
	path := filepath.Join(t.TempDir(), "trace.ltcx")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Stats() != m.Stats() || o.Chunks() != m.Chunks() || o.RefsPerChunk() != 333 {
		t.Fatalf("reopened store: stats %+v chunks %d rpc %d", o.Stats(), o.Chunks(), o.RefsPerChunk())
	}
	if got := replayAll(t, o.Cursor()); !reflect.DeepEqual(got, refs) {
		t.Fatal("file-backed replay diverged")
	}
}

func TestOpenStoreRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := Materialize(NewSliceSource(randRefs(1, 100)))
	raw := append(good.headerBytes(), good.data...)

	if _, err := OpenStore(write("short", []byte("LTCX"))); err == nil {
		t.Error("want error for truncated file")
	}
	bad := append([]byte("NOPE"), raw[4:]...)
	if _, err := OpenStore(write("magic", bad)); err == nil {
		t.Error("want error for bad magic")
	}
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := OpenStore(write("version", bad)); err == nil {
		t.Error("want error for bad version")
	}
	if _, err := OpenStore(write("cut", raw[:len(raw)-1])); err == nil {
		// The chunk index no longer spans the shortened data section.
		t.Error("want error for truncated data")
	}
}

// TestCursorConcurrentReplay exercises multi-cursor replay under the race
// detector: independent cursors over one shared store must not interact.
func TestCursorConcurrentReplay(t *testing.T) {
	refs := randRefs(5, 20000)
	m := MaterializeChunked(NewSliceSource(refs), 1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m.Cursor()
			buf := make([]Ref, 64+g) // desync batch boundaries across goroutines
			var got []Ref
			for {
				n := c.ReadRefs(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !reflect.DeepEqual(got, refs) {
				t.Errorf("goroutine %d: concurrent replay diverged", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestCursorReplayAllocs pins the zero-alloc replay loop (the benchmark
// gate measures the same thing; this keeps it a plain test failure).
func TestCursorReplayAllocs(t *testing.T) {
	m := Materialize(NewSliceSource(randRefs(3, 10000)))
	c := m.Cursor()
	buf := make([]Ref, DefaultBatch)
	avg := testing.AllocsPerRun(10, func() {
		c.Reset()
		for c.ReadRefs(buf) != 0 {
		}
	})
	if avg != 0 {
		t.Errorf("replay allocated %.1f times per full pass, want 0", avg)
	}
}

// FuzzMaterializeRoundTrip: arbitrary streams (including extended-ctx
// records) must replay bit-identically through in-memory cursors, across
// chunk boundaries, and from the file written and mapped back.
func FuzzMaterializeRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(7))
	f.Add(int64(42), uint16(1), uint8(1))
	f.Add(int64(-9), uint16(2000), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, chunkSeed uint8) {
		refs := randRefs(seed, int(n))
		chunk := int(chunkSeed)%200 + 1
		m := MaterializeChunked(NewSliceSource(refs), chunk)
		got := Collect(m.Cursor(), 0)
		if len(got) != len(refs) {
			t.Fatalf("in-memory replay yielded %d refs want %d (chunk %d)", len(got), len(refs), chunk)
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("in-memory replay diverged at ref %d (chunk %d)", i, chunk)
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.ltcx")
		if err := m.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		got = Collect(mapped.Cursor(), 0)
		if len(got) != len(refs) {
			t.Fatalf("mapped replay yielded %d refs want %d", len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("mapped replay diverged at ref %d", i)
			}
		}
	})
}
