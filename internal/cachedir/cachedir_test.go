package cachedir

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

func openRW(t *testing.T, opts Options) *Dir {
	t.Helper()
	opts.Mode = ReadWrite
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNilDirIsDisabledCache(t *testing.T) {
	var d *Dir
	if _, ok := d.Get("k"); ok {
		t.Fatal("nil Dir served a hit")
	}
	if d.Put("k", []byte("v")) {
		t.Fatal("nil Dir accepted a Put")
	}
	if _, ok := d.OpenTrace("deadbeef"); ok {
		t.Fatal("nil Dir opened a trace")
	}
	if d.Mode() != Off || d.Root() != "" || d.Size() != 0 {
		t.Fatal("nil Dir accessors not zero")
	}
	if c := d.Counters(); c != (Counters{}) {
		t.Fatalf("nil Dir counters = %+v", c)
	}
}

func TestOpenOffReturnsNil(t *testing.T) {
	d, err := Open(t.TempDir(), Options{Mode: Off})
	if err != nil || d != nil {
		t.Fatalf("Open(Off) = %v, %v; want nil, nil", d, err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	payload := []byte("the result bytes")
	if !d.Put("cell-key", payload) {
		t.Fatal("Put failed")
	}
	got, ok := d.Get("cell-key")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := d.Get("other-key"); ok {
		t.Fatal("hit on a key never stored")
	}
	c := d.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.BadEntries != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// A second Open over the same root must serve entries written by the
// first — that is the whole point of the persistent tier.
func TestResultsSurviveReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := Open(root, Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	d1.Put("k", []byte("v"))
	d2, err := Open(root, Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if d2.Size() == 0 {
		t.Fatal("reopen did not seed size accounting")
	}
}

// entryPath digs out the single entry file under a tier for poisoning.
func entryPath(t *testing.T, d *Dir, tier string) string {
	t.Helper()
	var found string
	filepath.WalkDir(filepath.Join(d.Root(), tier), func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatalf("no entry file under %s", tier)
	}
	return found
}

func TestTruncatedEntryFallsBack(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	d.Put("k", []byte("some payload worth truncating"))
	p := entryPath(t, d, resultsSub)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if c := d.Counters(); c.BadEntries != 1 {
		t.Fatalf("BadEntries = %d, want 1", c.BadEntries)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	// Recompute-and-repair: the next Put restores service.
	if !d.Put("k", []byte("repaired")) {
		t.Fatal("repair Put failed")
	}
	if got, ok := d.Get("k"); !ok || string(got) != "repaired" {
		t.Fatalf("after repair Get = %q, %v", got, ok)
	}
}

func TestChecksumMismatchFallsBack(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	d.Put("k", []byte("payload under checksum"))
	p := entryPath(t, d, resultsSub)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a payload byte; header checksum now disagrees
	if err := os.WriteFile(p, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("checksum-mismatched entry served as a hit")
	}
	if c := d.Counters(); c.BadEntries != 1 || c.Hits != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// A bumped version stamp must strand prior entries: same key, different
// address, so the lookup misses rather than serving a stale result.
func TestVersionStampInvalidates(t *testing.T) {
	root := t.TempDir()
	d1, err := Open(root, Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	d1.Put("k", []byte("old-semantics"))
	d2, err := Open(root, Options{Version: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get("k"); ok {
		t.Fatal("entry from stamp v1 served under stamp v2")
	}
	if got, ok := d1.Get("k"); !ok || string(got) != "old-semantics" {
		t.Fatalf("v1 entry lost: %q, %v", got, ok)
	}
}

func TestReadOnlyServesButNeverWrites(t *testing.T) {
	root := t.TempDir()
	rw, err := Open(root, Options{Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	rw.Put("k", []byte("v"))

	ro, err := Open(root, Options{Mode: ReadOnly, Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("RO Get = %q, %v", got, ok)
	}
	if ro.Put("k2", []byte("nope")) {
		t.Fatal("RO cache accepted a Put")
	}
	if _, ok := rw.Get("k2"); ok {
		t.Fatal("RO Put actually landed on disk")
	}
	// A corrupt entry must not be removed by an RO reader.
	p := entryPath(t, rw, resultsSub)
	if err := os.WriteFile(p, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Get("k"); ok {
		t.Fatal("RO served garbage")
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatal("RO reader removed the corrupt entry")
	}
}

func testTrace(n int) *trace.Materialized {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{PC: mem.Addr(0x1000 + 4*i), Addr: mem.Addr(0x80000 + 64*i), Gap: 1}
	}
	return trace.Materialize(trace.NewSliceSource(refs))
}

func TestTraceRoundTripAndDedup(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	m := testTrace(1000)
	digest, err := d.AddTrace(m)
	if err != nil {
		t.Fatal(err)
	}
	// Same content again: reused, not rewritten.
	digest2, err := d.AddTrace(testTrace(1000))
	if err != nil {
		t.Fatal(err)
	}
	if digest2 != digest {
		t.Fatalf("same content, different digests: %s vs %s", digest, digest2)
	}
	if c := d.Counters(); c.TracePuts != 1 {
		t.Fatalf("TracePuts = %d, want 1 (dedup)", c.TracePuts)
	}
	got, ok := d.OpenTrace(digest)
	if !ok {
		t.Fatal("OpenTrace missed a just-added digest")
	}
	defer got.Close()
	if got.Refs() != m.Refs() {
		t.Fatalf("revived trace has %d refs, want %d", got.Refs(), m.Refs())
	}
	// One-element reads of the revived cursor against a batched read of
	// the original.
	want := trace.Collect(m.Cursor(), 0)
	cur := got.Cursor()
	var one [1]trace.Ref
	for i := 0; ; i++ {
		if cur.ReadRefs(one[:]) == 0 {
			if i != len(want) {
				t.Fatalf("revived trace ends after %d refs, want %d", i, len(want))
			}
			break
		}
		if i >= len(want) || one[0] != want[i] {
			t.Fatalf("revived trace diverges at ref %d: %+v", i, one[0])
		}
	}
}

func TestOpenTraceRejectsBadDigest(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	for _, bad := range []string{"", "short", "../../etc/passwd", "xx/yy"} {
		if _, ok := d.OpenTrace(bad); ok {
			t.Fatalf("OpenTrace(%q) succeeded", bad)
		}
	}
}

// A damaged trace store is a miss that removes the file, whether the
// damage breaks the container (truncation) or only changes the stream it
// replays (a flipped bit inside the chunk data); re-adding repairs it.
func TestCorruptTraceFallsBack(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	for i, damage := range []struct {
		name string
		edit func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/3] }},
		{"bit-flipped", func(raw []byte) []byte { raw[2*len(raw)/3] ^= 1; return raw }},
	} {
		digest, err := d.AddTrace(testTrace(500))
		if err != nil {
			t.Fatal(err)
		}
		p := entryPath(t, d, tracesSub)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, damage.edit(raw), 0o666); err != nil {
			t.Fatal(err)
		}
		if m, ok := d.OpenTrace(digest); ok {
			m.Close()
			t.Fatalf("%s trace store opened", damage.name)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s trace not removed", damage.name)
		}
		if c := d.Counters(); c.BadEntries != uint64(i+1) {
			t.Fatalf("%s trace: %d bad entries counted, want %d", damage.name, c.BadEntries, i+1)
		}
		// Repair path: re-adding the trace works again.
		if _, err := d.AddTrace(testTrace(500)); err != nil {
			t.Fatal(err)
		}
		m, ok := d.OpenTrace(digest)
		if !ok {
			t.Fatalf("%s trace: repaired store did not open", damage.name)
		}
		m.Close()
	}
}

func TestEvictionRespectsCapOldestFirst(t *testing.T) {
	// Cap small enough that ~10 entries of 4 KiB overflow it.
	d := openRW(t, Options{Version: "v1", MaxBytes: 24 << 10})
	payload := make([]byte, 4<<10)
	// Writers' staging files are not entries: even older than every
	// entry, they must survive the walks (deleting one fails its rename).
	staging := []string{
		filepath.Join(d.Root(), resultsSub, "00", "00.ltre.tmp1"),
		filepath.Join(d.Root(), tracesSub, "00", "00.ltcx.tmp1"),
	}
	ancient := time.Now().Add(-100 * time.Hour)
	for _, p := range staging {
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, payload, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, ancient, ancient); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		key := string(rune('a' + i))
		if !d.Put(key, payload) {
			t.Fatalf("Put %q failed", key)
		}
		// Distinct atimes so LRU order is well-defined even on coarse
		// filesystem timestamp granularity.
		p := d.resultPath(d.addr(key))
		ts := time.Now().Add(time.Duration(i-20) * time.Hour)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
		d.maybeEvict()
	}
	if got, max := d.Size(), int64(24<<10); got > max {
		t.Fatalf("size %d exceeds cap %d after eviction", got, max)
	}
	c := d.Counters()
	if c.EvictedEntries == 0 || c.EvictedBytes == 0 {
		t.Fatalf("no eviction recorded: %+v", c)
	}
	// The newest entries must survive; the oldest must be gone.
	if _, ok := d.Get("j"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := d.Get("a"); ok {
		t.Fatal("oldest entry survived past the cap")
	}
	for _, p := range staging {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("eviction removed a staging file: %v", err)
		}
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	d := openRW(t, Options{Version: "v1", MaxBytes: 256 << 10})
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	payload := make([]byte, 8<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				if g%2 == 0 {
					d.Put(k, payload)
				} else if got, ok := d.Get(k); ok && len(got) != len(payload) {
					t.Errorf("short payload for %s: %d", k, len(got))
				}
			}
		}(g)
	}
	wg.Wait()
	if c := d.Counters(); c.BadEntries != 0 {
		t.Fatalf("concurrent use produced bad entries: %+v", c)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": Off, "ro": ReadOnly, "rw": ReadWrite} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("yes"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"": 0, "0": 0, "123": 123,
		"4K": 4 << 10, "4KB": 4 << 10, "4KiB": 4 << 10,
		"2M": 2 << 20, "3g": 3 << 30, "1T": 1 << 40, " 5 MB ": 5 << 20,
	}
	for s, want := range cases {
		got, err := ParseSize(s)
		if err != nil || got != want {
			t.Fatalf("ParseSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, bad := range []string{"x", "-1", "4X", "K"} {
		if _, err := ParseSize(bad); err == nil {
			t.Fatalf("ParseSize(%q) accepted", bad)
		}
	}
}
