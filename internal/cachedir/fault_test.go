package cachedir

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// openFaulty opens a ReadWrite Dir over a fresh injector with the given
// schedule, trip threshold 3 and a long cooldown (tests that need the
// probe clock move it by hand).
func openFaulty(t *testing.T, rules ...faultfs.Rule) (*Dir, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.NewInjector(1)
	d, err := Open(t.TempDir(), Options{Mode: ReadWrite, FS: inj, FailThreshold: 3, RetryAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetRules(rules...) // arm after Open so setup I/O is clean
	return d, inj
}

// Every scripted write-side fault must degrade a Put to "not persisted"
// — never an error, never a served corruption — and count as an I/O
// error. A Get of the failed key misses cleanly.
func TestPutFaultsDegradeToMiss(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		{"enospc", faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC}},
		{"torn-write", faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC, Short: 10}},
		{"create", faultfs.Rule{Op: faultfs.OpCreate, Err: syscall.EIO}},
		{"rename", faultfs.Rule{Op: faultfs.OpRename, Err: syscall.EIO}},
		{"fsync", faultfs.Rule{Op: faultfs.OpSync, Err: syscall.EIO}},
		{"mkdir", faultfs.Rule{Op: faultfs.OpMkdir, Err: syscall.EIO}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := openFaulty(t, tc.rule)
			if d.Put("k", []byte("payload")) {
				t.Fatal("faulted Put reported success")
			}
			c := d.Counters()
			if c.IOErrors == 0 {
				t.Fatal("fault not counted as I/O error")
			}
			if _, ok := d.Get("k"); ok {
				t.Fatal("Get served a value that never landed")
			}
		})
	}
}

// A torn write must never leave an entry a later Get trusts: the
// staging file holds the truncated bytes, the final path is never
// renamed into place.
func TestTornWriteLeavesNoVisibleEntry(t *testing.T) {
	d, inj := openFaulty(t, faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC, Short: 8})
	if d.Put("k", []byte("a long payload that will be torn")) {
		t.Fatal("torn Put reported success")
	}
	inj.SetRules() // heal
	if _, ok := d.Get("k"); ok {
		t.Fatal("Get hit after a torn write")
	}
	// Repair: the same key persists cleanly on retry.
	if !d.Put("k", []byte("payload")) {
		t.Fatal("repair Put failed on healed disk")
	}
	if v, ok := d.Get("k"); !ok || string(v) != "payload" {
		t.Fatalf("repaired Get = %q, %v", v, ok)
	}
}

// EIO on read is counted against the breaker but is still just a miss;
// absence (ErrNotExist) is a plain miss and never counts.
func TestReadFaultIsCountedMiss(t *testing.T) {
	d, inj := openFaulty(t)
	if _, ok := d.Get("absent"); ok {
		t.Fatal("hit on absent key")
	}
	if c := d.Counters(); c.IOErrors != 0 {
		t.Fatalf("absence counted as I/O error: %+v", c)
	}
	if !d.Put("k", []byte("v")) {
		t.Fatal("setup Put failed")
	}
	inj.SetRules(faultfs.Rule{Op: faultfs.OpRead, Err: syscall.EIO})
	if _, ok := d.Get("k"); ok {
		t.Fatal("hit through EIO")
	}
	if c := d.Counters(); c.IOErrors != 1 {
		t.Fatalf("IOErrors = %d, want 1", c.IOErrors)
	}
	inj.SetRules()
	if v, ok := d.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("healed Get = %q, %v", v, ok)
	}
}

// After FailThreshold consecutive errors the breaker opens: writes stop
// reaching the disk at all, reads keep trying, and counters report the
// degraded state.
func TestBreakerTripsIntoMemoryOnlyMode(t *testing.T) {
	d, inj := openFaulty(t, faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		d.Put("k", []byte("v"))
	}
	c := d.Counters()
	if !c.Degraded || c.Trips != 1 {
		t.Fatalf("after 3 faults: %+v, want degraded with 1 trip", c)
	}
	opsBefore := inj.Ops()
	if d.Put("k2", []byte("v2")) {
		t.Fatal("degraded Put reported success")
	}
	if inj.Ops() != opsBefore {
		t.Fatal("degraded Put touched the disk")
	}
	// Reads still try: a pre-faulted entry written behind the seam is
	// served even while degraded.
	path := d.resultPath(d.addr("pre"))
	os.MkdirAll(filepath.Dir(path), 0o777)
	os.WriteFile(path, encodeEntry([]byte("live")), 0o666)
	if v, ok := d.Get("pre"); !ok || string(v) != "live" {
		t.Fatalf("degraded Get = %q, %v; want hit", v, ok)
	}
}

// While open, one write per cooldown window probes the disk; a probe
// succeeding on a healed disk closes the breaker and Recovered counts
// it.
func TestBreakerRecoversThroughProbe(t *testing.T) {
	d, inj := openFaulty(t, faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		d.Put("k", []byte("v"))
	}
	if !d.Degraded() {
		t.Fatal("breaker did not trip")
	}
	// Heal the disk, but the cooldown has not elapsed: still degraded.
	inj.SetRules()
	if d.Put("early", []byte("v")) {
		t.Fatal("write allowed before cooldown")
	}
	// Advance the fake clock past the cooldown: the next write probes,
	// succeeds, and the Dir recovers.
	now := time.Now()
	d.brk.mu.Lock()
	d.brk.now = func() time.Time { return now.Add(2 * time.Hour) }
	d.brk.mu.Unlock()
	if !d.Put("probe", []byte("v")) {
		t.Fatal("probe write failed on healed disk")
	}
	c := d.Counters()
	if c.Degraded || c.Recovered != 1 {
		t.Fatalf("after probe: %+v, want recovered", c)
	}
	if v, ok := d.Get("probe"); !ok || string(v) != "v" {
		t.Fatalf("post-recovery Get = %q, %v", v, ok)
	}
}

// A probe failing on a still-dead disk keeps the breaker open and
// re-arms the cooldown.
func TestFailedProbeStaysDegraded(t *testing.T) {
	d, _ := openFaulty(t, faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		d.Put("k", []byte("v"))
	}
	now := time.Now()
	tick := 2 * time.Hour
	d.brk.mu.Lock()
	d.brk.now = func() time.Time { return now.Add(tick) }
	d.brk.mu.Unlock()
	if d.Put("probe", []byte("v")) {
		t.Fatal("probe succeeded on dead disk")
	}
	c := d.Counters()
	if !c.Degraded || c.Recovered != 0 {
		t.Fatalf("after failed probe: %+v, want still degraded", c)
	}
	// Within the re-armed window, no further disk traffic.
	if d.Put("again", []byte("v")) {
		t.Fatal("write allowed inside re-armed cooldown")
	}
}

// A fully dead disk (every op fails) degrades every surface without an
// error escaping; Counters tell the story.
func TestDeadDiskDegradesEverything(t *testing.T) {
	d, inj := openFaulty(t)
	if !d.Put("k", []byte("v")) {
		t.Fatal("setup Put failed")
	}
	inj.SetRules(faultfs.Rule{Op: faultfs.OpAny, Err: syscall.EIO})
	for i := 0; i < 5; i++ {
		d.Put("dead", []byte("v"))
		d.Get("k")
	}
	c := d.Counters()
	if !c.Degraded {
		t.Fatalf("dead disk did not degrade: %+v", c)
	}
	opsBefore := inj.Ops()
	if _, err := d.AddTrace(testTrace(100)); err == nil {
		t.Fatal("AddTrace on dead cache returned nil error")
	}
	// Degraded refusals fail fast in memory (the dedup stat is read-side
	// and allowed; nothing write-side may touch the disk).
	if got := inj.Ops() - opsBefore; got > 2 {
		t.Fatalf("degraded trace writes performed %d disk ops", got)
	}
}

// Eviction walks count unreadable subtrees instead of silently skipping
// them.
func TestEvictWalkErrorsCounted(t *testing.T) {
	inj := faultfs.NewInjector(1)
	d, err := Open(t.TempDir(), Options{Mode: ReadWrite, FS: inj, MaxBytes: 1, FailThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Put("k", []byte("a payload big enough to overflow one byte")) {
		t.Fatal("Put failed")
	}
	inj.SetRules(faultfs.Rule{Op: faultfs.OpWalk, Err: syscall.EIO})
	d.Put("k2", []byte("another oversized payload to trigger the evict walk"))
	if c := d.Counters(); c.EvictWalkErrors == 0 {
		t.Fatalf("walk errors not counted: %+v", c)
	}
}
