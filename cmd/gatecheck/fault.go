package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/faultfs"
	"repro/internal/runner"
	"repro/internal/server"
)

// faultSpec is the job every fault check runs, at the given seed.
func faultSpec(seed uint64) exp.JobSpec {
	return exp.JobSpec{Experiments: []string{"fig8"}, Scale: "small", Seed: seed, Benchmarks: []string{"swim"}}
}

// faultGate proves the cache is an accelerator, never a dependency, even
// when the disk is hostile (DESIGN.md §15):
//
//   - Under every scripted fault schedule an experiment run completes
//     with report bytes identical to a no-cache reference, and a clean
//     reopen of the same directory afterwards serves no corrupt entry.
//   - Bit rot inside a cached trace store, which still parses, is caught
//     by the store's address check: the run regenerates the trace and
//     stays byte-identical.
//   - A writer kill -9'd mid-burst leaves a store that reopens cleanly:
//     every readable entry holds exactly the bytes put under its key, and
//     a tampered entry is rejected and repaired in place.
//   - An in-process daemon (the real server handler over the real
//     scheduler and cache) serves byte-identical jobs over a dead cache
//     directory, reports the cache degraded and then recovered, and a
//     panicking cell fails only itself.
func faultGate() {
	ref, _ := runLocal(faultSpec(1), nil)
	logf("reference report: %d bytes", len(ref))
	scheduleChecks(ref)
	bitRotCheck(ref)
	crashCheck()
	daemonCheck(ref)
}

// faultPass runs the fault job on a cache at root opened through inj (nil
// for the plain filesystem). The schedule arms only after Open's set-up
// I/O has gone through clean, so the run, not the scaffolding, is under
// fault.
func faultPass(label, root string, inj *faultfs.Injector, rules []faultfs.Rule) string {
	var fsys faultfs.FS
	if inj != nil {
		fsys = inj
	}
	cdir, err := cachedir.Open(root, cachedir.Options{
		Mode: cachedir.ReadWrite, Version: exp.CacheVersion,
		FS: fsys, FailThreshold: 3, RetryAfter: time.Hour,
	})
	if err != nil {
		fail(fmt.Errorf("%s: open cache: %w", label, err))
	}
	if inj != nil {
		inj.SetRules(rules...)
	}
	out, _ := runLocal(faultSpec(1), cdir)
	c := cdir.Counters()
	logf("%s: %d io errors, degraded=%v, %d bad entries repaired", label, c.IOErrors, c.Degraded, c.BadEntries)
	return out
}

// scheduleChecks runs a faulted pass and a clean reopen under every
// scripted schedule; both must match the reference byte for byte.
func scheduleChecks(ref string) {
	schedules := []struct {
		name  string
		rules []faultfs.Rule
	}{
		{"enospc-on-write", []faultfs.Rule{{Op: faultfs.OpWrite, After: 3, Err: syscall.ENOSPC}}},
		{"torn-write", []faultfs.Rule{{Op: faultfs.OpWrite, Err: syscall.ENOSPC, Short: 32}}},
		{"eio-on-read", []faultfs.Rule{{Op: faultfs.OpRead, Err: syscall.EIO}}},
		{"rename-failure", []faultfs.Rule{{Op: faultfs.OpRename, Err: syscall.EIO}}},
		{"fsync-failure", []faultfs.Rule{{Op: faultfs.OpSync, Err: syscall.EIO}}},
		{"flaky-disk", []faultfs.Rule{{Op: faultfs.OpAny, Prob: 0.3, Err: syscall.EIO}}},
		{"dead-disk", []faultfs.Rule{{Op: faultfs.OpAny, Err: syscall.EIO}}},
	}
	for _, sc := range schedules {
		root := tempDir("fault")
		inj := faultfs.NewInjector(42)
		if faultPass("faulted/"+sc.name, root, inj, sc.rules) != ref {
			fail(fmt.Errorf("schedule %s: faulted report differs from reference", sc.name))
		}
		// Whatever the faults left on disk must self-repair into a
		// byte-identical clean run with no corrupt entry served.
		if faultPass("reopen/"+sc.name, root, nil, nil) != ref {
			fail(fmt.Errorf("schedule %s: post-fault reopen report differs from reference", sc.name))
		}
		os.RemoveAll(root)
		logf("schedule %-16s byte-identical (faulted + reopen), %d faults injected", sc.name, inj.Injected())
	}
}

// bitRotCheck fills a fresh cache with table2 on swim, flips the low bit
// of 64 consecutive bytes two-thirds into the swim trace store, and runs
// the fault job over that cache. The damaged store still parses, so only
// its address check can reject it: the report must equal the reference,
// and the cache must count exactly one bad entry.
func bitRotCheck(ref string) {
	root := tempDir("bitrot")
	open := func() *cachedir.Dir {
		cdir, err := cachedir.Open(root, cachedir.Options{Mode: cachedir.ReadWrite, Version: exp.CacheVersion})
		if err != nil {
			fail(fmt.Errorf("bit rot: open cache: %w", err))
		}
		return cdir
	}
	fill := faultSpec(1)
	fill.Experiments = []string{"table2"}
	runLocal(fill, open())
	stores := entries(root, "traces", ".ltcx")
	if len(stores) != 1 {
		fail(fmt.Errorf("bit rot: table2 on swim left %d trace stores, want 1", len(stores)))
	}
	raw, err := os.ReadFile(stores[0])
	if err != nil {
		fail(err)
	}
	start := 2 * len(raw) / 3
	for i := start; i < start+64; i++ {
		raw[i] ^= 1
	}
	if err := os.WriteFile(stores[0], raw, 0o666); err != nil {
		fail(err)
	}
	cdir := open()
	if out, _ := runLocal(faultSpec(1), cdir); out != ref {
		fail(fmt.Errorf("bit rot: report over a damaged trace store differs from reference"))
	}
	if c := cdir.Counters(); c.BadEntries != 1 {
		fail(fmt.Errorf("bit rot: %d bad entries counted, want 1: %+v", c.BadEntries, c))
	}
	logf("bit rot: 64 flipped bytes at offset %d of a %d-byte trace store rejected; report byte-identical", start, len(raw))
}

// crashChildEnv carries the crash-test cache directory into the
// re-executed writer child; its presence selects the child role.
const crashChildEnv = "GATECHECK_CRASH_DIR"

// crashPayload derives the bytes the child writes under key i, so the
// parent can verify any surviving entry bit for bit.
func crashPayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("gatecheck-crash-payload-%06d|", i)), 64)
}

func crashKey(i int) string { return fmt.Sprintf("crash-key-%06d", i) }

// crashChild is the kill -9 victim: it writes entries as fast as it can
// until the parent kills it mid-burst.
func crashChild(dir string) {
	cdir, err := cachedir.Open(dir, cachedir.Options{Mode: cachedir.ReadWrite, Version: exp.CacheVersion})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatecheck crash child:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		cdir.Put(crashKey(i), crashPayload(i))
	}
}

// crashCheck kills a writer child mid-burst and proves the store reopens
// self-consistent: hits are exact, torn leftovers invisible, and a
// tampered entry is rejected and repaired.
func crashCheck() {
	root := tempDir("crash")
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	child := exec.Command(self)
	child.Env = append(os.Environ(), crashChildEnv+"="+root)
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		fail(err)
	}
	atExit(func() { child.Process.Kill(); child.Wait() })
	// Let the burst land some entries, then kill without warning.
	for deadline := time.Now().Add(10 * time.Second); len(entries(root, "results", ".ltre")) < 5; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			fail(fmt.Errorf("crash child wrote <5 entries in 10s"))
		}
	}
	child.Process.Signal(syscall.SIGKILL)
	child.Wait()

	cdir, err := cachedir.Open(root, cachedir.Options{Mode: cachedir.ReadWrite, Version: exp.CacheVersion})
	if err != nil {
		fail(fmt.Errorf("reopen after kill -9: %w", err))
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		got, ok := cdir.Get(crashKey(i))
		if !ok {
			continue
		}
		hits++
		if !bytes.Equal(got, crashPayload(i)) {
			fail(fmt.Errorf("after kill -9, key %s served wrong bytes", crashKey(i)))
		}
	}
	if hits == 0 {
		fail(fmt.Errorf("after kill -9, zero entries survived"))
	}

	// Simulate the one artifact atomic renames cannot rule out on a
	// non-atomic filesystem: a visible entry holding garbage. The
	// checksummed container must reject it, and the key must repair
	// through the normal put path. The payload is one the child never
	// wrote, so the entry found on disk is the tamper entry.
	tamperKey, tamper := "tamper-key", bytes.Repeat([]byte("gatecheck-tamper-payload|"), 64)
	if !cdir.Put(tamperKey, tamper) {
		fail(fmt.Errorf("tamper setup put failed"))
	}
	tampered := 0
	for _, path := range entries(root, "results", ".ltre") {
		if raw, err := os.ReadFile(path); err == nil && bytes.Contains(raw, tamper[:32]) {
			if err := os.WriteFile(path, []byte("LTRE\x01 torn garbage, not a checksummed payload"), 0o666); err != nil {
				fail(err)
			}
			tampered++
		}
	}
	if tampered != 1 {
		fail(fmt.Errorf("tamper setup: %d entries on disk hold the tamper payload, want 1", tampered))
	}
	if _, ok := cdir.Get(tamperKey); ok {
		fail(fmt.Errorf("tampered entry served"))
	}
	if !cdir.Put(tamperKey, tamper) {
		fail(fmt.Errorf("repair put failed"))
	}
	if got, ok := cdir.Get(tamperKey); !ok || !bytes.Equal(got, tamper) {
		fail(fmt.Errorf("repair round-trip failed"))
	}
	if c := cdir.Counters(); c.BadEntries == 0 {
		fail(fmt.Errorf("tampered entry not counted: %+v", c))
	}
	logf("crash: %d entries survived kill -9, all byte-exact; tampered entry rejected and repaired", hits)
}

// entries lists the files with extension ext in one tier of the cache at
// root.
func entries(root, tier, ext string) []string {
	var paths []string
	filepath.WalkDir(filepath.Join(root, tier), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ext) {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

// daemonCheck drives the real server handler over a cache whose disk
// dies mid-flight: jobs stay byte-identical, health reports degraded and
// then recovers, and a panicking cell fails alone.
func daemonCheck(ref string) {
	inj := faultfs.NewInjector(7)
	cache, err := cachedir.Open(tempDir("daemon"), cachedir.Options{
		Mode: cachedir.ReadWrite, Version: exp.CacheVersion,
		FS: inj, FailThreshold: 2, RetryAfter: 100 * time.Millisecond,
	})
	if err != nil {
		fail(err)
	}
	sched := runner.New(0)
	sched.SetStore(cache)
	srv := server.New(server.Config{Sched: sched, Cache: cache, MaxActiveJobs: 2, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	c := client{base: ts.URL}

	if got := c.health().Cache; got != "ok" {
		fail(fmt.Errorf("daemon healthz cache = %q before faults, want ok", got))
	}
	if c.report(faultSpec(1)) != ref {
		fail(fmt.Errorf("daemon report (healthy cache) differs from reference"))
	}

	// Kill the disk; the next job's cache traffic trips the breaker. A
	// new seed forces fresh cells, so the job really exercises the dead
	// disk rather than the in-memory tier.
	inj.SetRules(faultfs.Rule{Op: faultfs.OpAny, Err: syscall.EIO})
	ref2, _ := runLocal(faultSpec(2), nil)
	if c.report(faultSpec(2)) != ref2 {
		fail(fmt.Errorf("daemon report (dead cache dir) differs from reference"))
	}
	if !cache.Degraded() {
		fail(fmt.Errorf("dead disk did not trip the breaker: %+v", cache.Counters()))
	}
	if got := c.health().Cache; got != "degraded" {
		fail(fmt.Errorf("daemon healthz cache = %q with dead disk, want degraded", got))
	}

	// A panicking cell on the shared scheduler fails only itself.
	if _, err := sched.Do(context.Background(), runner.Cell{Key: "gatecheck-panic", Run: func() (any, error) {
		panic("injected cell panic")
	}}); err == nil {
		fail(fmt.Errorf("panicking cell returned nil error"))
	}
	if got := c.health().Cache; got != "degraded" {
		fail(fmt.Errorf("daemon unhealthy after cell panic: healthz cache = %q", got))
	}

	// Heal the disk; after the cooldown the next write probes and the
	// breaker closes.
	inj.SetRules()
	time.Sleep(150 * time.Millisecond)
	if !cache.Put("gatecheck-probe", []byte("probe")) {
		fail(fmt.Errorf("probe write failed on healed disk"))
	}
	if got := c.health().Cache; got != "ok" {
		fail(fmt.Errorf("daemon healthz cache = %q after recovery, want ok", got))
	}
	cc := cache.Counters()
	if cc.Recovered == 0 || cc.Trips == 0 {
		fail(fmt.Errorf("recovery not counted: %+v", cc))
	}
	logf("daemon: byte-identical with dead cache dir; %d io errors, %d trip(s), %d recovery(ies)", cc.IOErrors, cc.Trips, cc.Recovered)
}
