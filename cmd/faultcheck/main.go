// Command faultcheck is the CI gate for the fault-injection and
// graceful-degradation contract (make fault-check): the cache is an
// accelerator, never a dependency, even when the disk is actively
// hostile. It proves three things (DESIGN.md §15):
//
//   - Under every scripted fault schedule — ENOSPC on write, torn
//     writes, EIO on read, rename and fsync failures, a seeded flaky
//     disk, a fully dead disk — an experiment run completes with report
//     bytes identical to a no-cache reference run, and a clean reopen of
//     the same directory afterwards serves no corrupt entry (the store
//     self-repaired whatever the faults left behind).
//   - A process kill -9'd in the middle of a write burst leaves a store
//     that reopens cleanly: every readable entry carries exactly the
//     bytes that were put under its key, torn leftovers are invisible,
//     and a tampered entry is rejected and repaired in place.
//   - An in-process ltexpd (the real server.Handler over the real
//     scheduler and cache) keeps serving byte-identical jobs with a
//     fully dead cache directory: /healthz reports the cache degraded
//     while the breaker is open and ok again after the re-probe
//     recovers, a panicking cell fails only its own work, and the
//     daemon never crashes.
//
// Usage:
//
//	faultcheck                      # fig8 on swim, small scale
//	faultcheck -exp fig2 -bench mcf
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/faultfs"
	"repro/internal/runner"
	"repro/internal/server"
)

// childEnv carries the crash-test cache directory into the re-exec'd
// writer child; its presence selects the child role.
const childEnv = "FAULTCHECK_CHILD_DIR"

var (
	expID    = flag.String("exp", "fig8", "experiment id to run under faults")
	benches  = flag.String("bench", "swim", "comma-separated benchmark subset (empty = experiment defaults)")
	scale    = flag.String("scale", "small", "workload scale")
	parallel = flag.Int("parallel", 0, "simulation cell workers (0 = GOMAXPROCS)")
)

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		childMain(dir)
		return
	}
	showVersion := buildinfo.VersionFlag("faultcheck")
	flag.Parse()
	showVersion()

	ref := runPass("reference", "", nil, nil, 1)
	fmt.Fprintf(os.Stderr, "faultcheck: reference report: %d bytes\n", len(ref))

	scheduleChecks(ref)
	crashCheck()
	daemonCheck(ref)
	fmt.Fprintln(os.Stderr, "faultcheck: OK: byte-identical reports under every fault schedule, crash-safe store, daemon degrades and recovers")
}

// runPass executes one job (expID/benches/scale/seed) on a fresh
// scheduler and returns the rendered report bytes — exactly what the
// daemon's report endpoint serves. root == "" runs without a cache.
// With an injector, the fault schedule arms only after Open's setup I/O
// (mkdirs, tag write, size walk) has gone through clean: the run
// itself, not the scaffolding, is under fault.
func runPass(label, root string, inj *faultfs.Injector, rules []faultfs.Rule, seed uint64) string {
	var cdir *cachedir.Dir
	if root != "" {
		var fsys faultfs.FS
		if inj != nil {
			fsys = inj
		}
		var err error
		cdir, err = cachedir.Open(root, cachedir.Options{
			Mode: cachedir.ReadWrite, Version: exp.CacheVersion,
			FS: fsys, FailThreshold: 3, RetryAfter: time.Hour,
		})
		if err != nil {
			fail(fmt.Errorf("%s: open cache: %w", label, err))
		}
		if inj != nil {
			inj.SetRules(rules...)
		}
	}
	sched := runner.New(*parallel)
	if cdir != nil {
		sched.SetStore(cdir)
	}
	spec := exp.JobSpec{
		Experiments: []string{*expID},
		Scale:       *scale,
		Seed:        seed,
		Benchmarks:  benchList(),
		Cache:       cdir,
	}
	res, err := exp.RunJob(context.Background(), spec, sched)
	if err != nil {
		fail(fmt.Errorf("%s: %w", label, err))
	}
	var buf bytes.Buffer
	if err := res.RenderText(&buf); err != nil {
		fail(err)
	}
	if cdir != nil {
		c := cdir.Counters()
		fmt.Fprintf(os.Stderr, "faultcheck: %s: %d io errors, degraded=%v, %d bad entries repaired\n",
			label, c.IOErrors, c.Degraded, c.BadEntries)
	}
	return buf.String()
}

func benchList() []string {
	if *benches == "" {
		return nil
	}
	return strings.Split(*benches, ",")
}

// scheduleChecks runs the faulted-cold-pass / clean-reopen pair under
// every scripted schedule and demands byte identity both times.
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
		root, err := os.MkdirTemp("", "faultcheck-*")
		if err != nil {
			fail(err)
		}
		inj := faultfs.NewInjector(42)
		got := runPass("faulted/"+sc.name, root, inj, sc.rules, 1)
		if got != ref {
			fail(fmt.Errorf("schedule %s: faulted report differs from reference", sc.name))
		}
		// Reopen with the plain filesystem: whatever artifacts the faults
		// left on disk must self-repair into a byte-identical clean run
		// with no corrupt entry served.
		clean := runPass("reopen/"+sc.name, root, nil, nil, 1)
		if clean != ref {
			fail(fmt.Errorf("schedule %s: post-fault reopen report differs from reference", sc.name))
		}
		os.RemoveAll(root)
		fmt.Fprintf(os.Stderr, "faultcheck: schedule %-16s byte-identical (faulted + reopen), %d faults injected\n",
			sc.name, inj.Injected())
	}
}

// --- crash-during-write child-process test ---

// payload derives the deterministic bytes the child writes under key i,
// so the parent can verify any surviving entry bit-for-bit.
func payload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("faultcheck-crash-payload-%06d|", i)), 64)
}

func crashKey(i int) string { return fmt.Sprintf("crash-key-%06d", i) }

// childMain is the kill -9 victim: it opens the cache and writes
// entries as fast as it can until the parent kills it mid-burst.
func childMain(dir string) {
	cdir, err := cachedir.Open(dir, cachedir.Options{Mode: cachedir.ReadWrite, Version: exp.CacheVersion})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultcheck child:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		cdir.Put(crashKey(i), payload(i))
	}
}

// crashCheck kills a writer child mid-burst and proves the store
// reopens self-consistent: hits are exact, torn leftovers invisible,
// tampered entries rejected and repaired.
func crashCheck() {
	root, err := os.MkdirTemp("", "faultcheck-crash-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(root)
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+root)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fail(err)
	}
	// Let the burst land some entries, then kill without warning.
	deadline := time.Now().Add(10 * time.Second)
	for countEntries(root) < 5 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			fail(fmt.Errorf("crash child wrote <5 entries in 10s"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()

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
		if !bytes.Equal(got, payload(i)) {
			fail(fmt.Errorf("after kill -9, key %s served wrong bytes", crashKey(i)))
		}
	}
	if hits == 0 {
		fail(fmt.Errorf("after kill -9, zero entries survived (child never landed a write?)"))
	}

	// Simulate the one artifact atomic renames cannot rule out on a
	// non-atomic filesystem: a visible entry holding garbage. The
	// checksummed container must reject it, and the key must repair
	// through the normal put path.
	tamperKey := "tamper-key"
	if !cdir.Put(tamperKey, payload(7)) {
		fail(fmt.Errorf("tamper setup put failed"))
	}
	// Corrupt the entry on disk behind the Dir's back.
	tamperedPath, ok := findEntry(root, func(raw []byte) bool { return bytes.Contains(raw, payload(7)[:32]) })
	if !ok {
		fail(fmt.Errorf("tamper setup entry not found on disk"))
	}
	if err := os.WriteFile(tamperedPath, []byte("LTRE\x01 torn garbage, not a checksummed payload"), 0o666); err != nil {
		fail(err)
	}
	if _, ok := cdir.Get(tamperKey); ok {
		fail(fmt.Errorf("tampered entry served"))
	}
	if !cdir.Put(tamperKey, payload(7)) {
		fail(fmt.Errorf("repair put failed"))
	}
	if got, ok := cdir.Get(tamperKey); !ok || !bytes.Equal(got, payload(7)) {
		fail(fmt.Errorf("repair round-trip failed"))
	}
	if c := cdir.Counters(); c.BadEntries == 0 {
		fail(fmt.Errorf("tampered entry not counted: %+v", c))
	}
	fmt.Fprintf(os.Stderr, "faultcheck: crash: %d entries survived kill -9, all byte-exact; tampered entry rejected and repaired\n", hits)
}

// countEntries counts .ltre files under the results tier.
func countEntries(root string) int {
	n := 0
	filepath.WalkDir(filepath.Join(root, "results"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".ltre") {
			n++
		}
		return nil
	})
	return n
}

// findEntry returns the first results-tier file whose raw bytes satisfy
// match.
func findEntry(root string, match func([]byte) bool) (string, bool) {
	var found string
	filepath.WalkDir(filepath.Join(root, "results"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || found != "" {
			return nil
		}
		if raw, err := os.ReadFile(path); err == nil && match(raw) {
			found = path
		}
		return nil
	})
	return found, found != ""
}

// --- daemon degradation test ---

// daemonCheck drives the real server handler over a cache whose disk
// dies mid-flight: jobs stay byte-identical, health reports degraded
// then recovers, a panicking cell fails alone.
func daemonCheck(ref string) {
	root, err := os.MkdirTemp("", "faultcheck-daemon-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(root)
	inj := faultfs.NewInjector(7)
	cache, err := cachedir.Open(root, cachedir.Options{
		Mode: cachedir.ReadWrite, Version: exp.CacheVersion,
		FS: inj, FailThreshold: 2, RetryAfter: 100 * time.Millisecond,
	})
	if err != nil {
		fail(err)
	}
	sched := runner.New(*parallel)
	sched.SetStore(cache)
	quiet := log.New(io.Discard, "", 0)
	srv := server.New(server.Config{Sched: sched, Cache: cache, MaxActiveJobs: 2, Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	if got := healthCache(ts.URL); got != "ok" {
		fail(fmt.Errorf("daemon healthz cache = %q before faults, want ok", got))
	}
	if got := submitAndFetch(ts.URL, 1); got != ref {
		fail(fmt.Errorf("daemon report (healthy cache) differs from reference"))
	}

	// Kill the disk; the next job's cache traffic trips the breaker. A
	// different seed forces fresh cells, so the job really exercises the
	// dead disk rather than the in-memory L1.
	inj.SetRules(faultfs.Rule{Op: faultfs.OpAny, Err: syscall.EIO})
	ref2 := runPass("reference-seed2", "", nil, nil, 2)
	if got := submitAndFetch(ts.URL, 2); got != ref2 {
		fail(fmt.Errorf("daemon report (dead cache dir) differs from reference"))
	}
	if !cache.Degraded() {
		fail(fmt.Errorf("dead disk did not trip the breaker: %+v", cache.Counters()))
	}
	if got := healthCache(ts.URL); got != "degraded" {
		fail(fmt.Errorf("daemon healthz cache = %q with dead disk, want degraded", got))
	}

	// A panicking cell on the shared scheduler fails only itself.
	if _, err := sched.Do(context.Background(), runner.Cell{Key: "faultcheck-panic", Run: func() (any, error) {
		panic("injected cell panic")
	}}); err == nil {
		fail(fmt.Errorf("panicking cell returned nil error"))
	}
	if got := healthCache(ts.URL); got != "degraded" {
		fail(fmt.Errorf("daemon unhealthy after cell panic: healthz cache = %q", got))
	}

	// Heal the disk; after the cooldown the next write probes and the
	// breaker closes.
	inj.SetRules()
	time.Sleep(150 * time.Millisecond)
	if !cache.Put("faultcheck-probe", []byte("probe")) {
		fail(fmt.Errorf("probe write failed on healed disk"))
	}
	if got := healthCache(ts.URL); got != "ok" {
		fail(fmt.Errorf("daemon healthz cache = %q after recovery, want ok", got))
	}
	c := cache.Counters()
	if c.Recovered == 0 || c.Trips == 0 {
		fail(fmt.Errorf("recovery not counted: %+v", c))
	}
	fmt.Fprintf(os.Stderr, "faultcheck: daemon: byte-identical with dead cache dir; %d io errors, %d trip(s), %d recovery(ies)\n",
		c.IOErrors, c.Trips, c.Recovered)
}

// submitAndFetch posts a job, waits for it to finish, and returns the
// text report bytes.
func submitAndFetch(base string, seed uint64) string {
	spec := map[string]any{
		"experiments": []string{*expID},
		"scale":       *scale,
		"seed":        seed,
		"benchmarks":  benchList(),
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	decodeBody(resp, &status)
	if status.ID == "" {
		fail(fmt.Errorf("job submission returned no id"))
	}
	deadline := time.Now().Add(5 * time.Minute)
	for status.State != string(server.JobDone) {
		if status.State == string(server.JobFailed) || status.State == string(server.JobCancelled) {
			fail(fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error))
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("job %s stuck in %s", status.ID, status.State))
		}
		time.Sleep(50 * time.Millisecond)
		resp, err = http.Get(base + "/v1/jobs/" + status.ID)
		if err != nil {
			fail(err)
		}
		decodeBody(resp, &status)
	}
	resp, err = http.Get(base + "/v1/jobs/" + status.ID + "/report")
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("report fetch: status %d, %v", resp.StatusCode, err))
	}
	return string(raw)
}

// healthCache fetches /healthz and returns the cache field.
func healthCache(base string) string {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		fail(err)
	}
	var out struct {
		Cache string `json:"cache"`
	}
	decodeBody(resp, &out)
	return out.Cache
}

func decodeBody(resp *http.Response, out any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fail(fmt.Errorf("bad response body: %w", err))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultcheck: FAIL:", err)
	os.Exit(1)
}
