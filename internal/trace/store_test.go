package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

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
	var file bytes.Buffer
	if _, err := Materialize(NewSliceSource(randRefs(1, 100))).WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes()

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

// A record cut short at the end of the data, under a chunk index that
// still spans what is left, ends the cursor with ErrBadTrace before the
// header's reference count: the store opens, but a full replay fails.
func TestCursorTruncatedRecord(t *testing.T) {
	m := MaterializeChunked(NewSliceSource(randRefs(4, 100)), 64)
	var file bytes.Buffer
	if _, err := m.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes()[:file.Len()-1]
	binary.LittleEndian.PutUint64(raw[storeFixedHead+8*m.Chunks():], uint64(m.Bytes()-1))
	path := filepath.Join(t.TempDir(), "cut.ltcx")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c := o.Cursor()
	if n := Count(c); n >= o.Refs() || !errors.Is(c.Err(), ErrBadTrace) {
		t.Fatalf("cut store replayed %d of %d refs, err %v; want fewer and ErrBadTrace", n, o.Refs(), c.Err())
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

// TestMaterializeAllocatesOnce pins single-allocation materialization:
// each chunk is encoded into one reused scratch buffer and copied once
// into an exact-size slice, so one Materialize allocates little more
// than the store's encoded bytes plus that scratch buffer. Appending
// record by record into one growing slice allocated about 5x.
func TestMaterializeAllocatesOnce(t *testing.T) {
	refs := randRefs(6, 8*DefaultRefsPerChunk+100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := Materialize(NewSliceSource(refs))
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	scratch := uint64(DefaultRefsPerChunk * maxRecordBytes)
	if limit := uint64(1.1*float64(m.Bytes())) + scratch; alloc > limit {
		t.Errorf("Materialize allocated %d bytes for a %d-byte store, want <= %d (1.1x plus one %d-byte chunk scratch)",
			alloc, m.Bytes(), limit, scratch)
	}
}

// mapsMention reports whether /proc/self/maps lists path, and whether
// any of the process's open descriptors points at it.
func mapsMention(t *testing.T, path string) (mapped, open bool) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			open = true
		}
	}
	return bytes.Contains(maps, []byte(path)), open
}

// writeStore materializes refs into a store file and returns its path.
func writeStore(t *testing.T, refs []Ref) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.ltcx")
	if err := Materialize(NewSliceSource(refs)).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedStoreReleasedWhenUnreachable: a mapped store nobody closes
// (a trace memo dropped with its job) releases its mapping once it is
// collected, and holds no descriptor meanwhile.
func TestMappedStoreReleasedWhenUnreachable(t *testing.T) {
	path := writeStore(t, randRefs(7, 5000))
	o, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped, open := mapsMention(t, path); !o.Mapped() || !mapped || open {
		t.Fatalf("open store: Mapped %t, in maps %t, fd open %t; want mapped with no fd", o.Mapped(), mapped, open)
	}
	c := o.Cursor()
	o = nil
	runtime.GC()
	if mapped, _ := mapsMention(t, path); !mapped {
		t.Fatal("mapping released while a cursor still reads it")
	}
	if n := Count(c); n != 5000 {
		t.Fatalf("cursor replayed %d refs, want 5000", n)
	}
	c = nil
	for i := 0; ; i++ {
		runtime.GC()
		mapped, open := mapsMention(t, path)
		if !mapped && !open {
			break
		}
		if i == 100 {
			t.Fatalf("unreachable store still in maps %t, fd open %t after %d collections", mapped, open, i)
		}
		time.Sleep(10 * time.Millisecond) // cleanups run on their own goroutine
	}
}

// runCleanups collects garbage until every cleanup that became due has
// run. Cleanups run on one goroutine, one queued batch after another, so
// once a sentinel registered after an earlier sentinel ran has itself
// run, the batch the first collection queued is done.
func runCleanups(t *testing.T) {
	t.Helper()
	for range 2 {
		done := make(chan struct{})
		runtime.AddCleanup(new(int), func(ch chan struct{}) { close(ch) }, done)
		for i := 0; ; i++ {
			runtime.GC()
			select {
			case <-done:
			case <-time.After(10 * time.Millisecond):
				if i < 100 {
					continue
				}
				t.Fatal("sentinel cleanup never ran")
			}
			break
		}
	}
}

// TestCloseThenCollectUnmapsOnce: Close stops the store's cleanup, so a
// later collection does not unmap the region again — by then it may hold
// another store's mapping, here a second open of the same file.
func TestCloseThenCollectUnmapsOnce(t *testing.T) {
	refs := randRefs(8, 5000)
	path := writeStore(t, refs)
	a, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	region := &a.mapped[0]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a = nil
	b, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	t.Logf("second mapping reuses the closed store's region: %t", &b.mapped[0] == region)
	runCleanups(t)
	if mapped, _ := mapsMention(t, path); !mapped {
		t.Fatal("second store's mapping is gone after the closed store was collected")
	}
	if got := replayAll(t, b.Cursor()); !reflect.DeepEqual(got, refs) {
		t.Fatal("second store's replay diverged")
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

// FuzzOpenStore treats arbitrary bytes as a store file: opening and
// replaying it must fail with ErrBadTrace or succeed, never panic. The
// cache tells a poisoned entry from a disk fault by that error.
func FuzzOpenStore(f *testing.F) {
	var valid bytes.Buffer
	if _, err := MaterializeChunked(NewSliceSource(randRefs(1, 300)), 64).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(storeMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ltcx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenStore(path)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("open failed without ErrBadTrace: %v", err)
			}
			return
		}
		defer m.Close()
		c := m.Cursor()
		buf := make([]Ref, 64)
		for c.ReadRefs(buf) != 0 {
		}
		if err := c.Err(); err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("replay failed without ErrBadTrace: %v", err)
		}
	})
}
