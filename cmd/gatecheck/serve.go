package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/server"
)

// serveGate is an end-to-end smoke over the real ltexpd and ltexp
// binaries and real HTTP (DESIGN.md §14). It builds both, starts the
// daemon on a fresh cache directory, runs a job whose report must equal
// a local ltexp run byte for byte, resubmits it (the rerun must execute
// zero simulations on the shared scheduler), and stops the daemon with
// SIGTERM, which must exit cleanly.
func serveGate() {
	// Real binaries: the smoke covers the daemon's own wiring (flag
	// parsing, scheduler and cache assembly, signal handling), not a
	// re-implementation of it.
	bin := tempDir("bin")
	ltexpd, ltexp := filepath.Join(bin, "ltexpd"), filepath.Join(bin, "ltexp")
	for path, pkg := range map[string]string{ltexpd: "./cmd/ltexpd", ltexp: "./cmd/ltexp"} {
		build := exec.Command("go", "build", "-o", path, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fail(fmt.Errorf("go build %s: %w", pkg, err))
		}
	}
	addr := freeAddr()
	daemon := exec.Command(ltexpd, "-addr", addr, "-cache-dir", tempDir("serve"))
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		fail(err)
	}
	exited := make(chan struct{})
	var exitErr error
	go func() { exitErr = daemon.Wait(); close(exited) }()
	atExit(func() { daemon.Process.Kill(); <-exited })
	c := client{base: "http://" + addr}
	waitReady(c)
	if h := c.health(); h.Status != "ok" || h.Version == "" || h.CacheVersion == "" {
		fail(fmt.Errorf("healthz = %+v", h))
	}

	spec := exp.JobSpec{Experiments: []string{"fig11"}, Scale: "small"}
	report := c.report(spec)
	local := exec.Command(ltexp, "-exp", "fig11", "-scale", "small", "-q")
	local.Stderr = os.Stderr
	want, err := local.Output()
	if err != nil {
		fail(fmt.Errorf("local ltexp run: %w", err))
	}
	if report != string(want) {
		fail(fmt.Errorf("daemon report differs from local ltexp output\n--- daemon (%d bytes) ---\n%s--- local (%d bytes) ---\n%s",
			len(report), report, len(want), want))
	}
	logf("report byte-identical to ltexp (%d bytes)", len(report))

	// The identical spec again: the shared scheduler must serve every
	// cell from its cache.
	st := c.runJob(spec)
	if st.Cells == nil || st.Cells.Executed != 0 {
		fail(fmt.Errorf("resubmission executed simulations: %+v, want 0", st.Cells))
	}
	logf("resubmission served %d cells with 0 simulations", st.Cells.Submitted)

	var stats struct {
		Runtime server.RuntimeStats `json:"runtime"`
	}
	c.getJSON("/v1/stats", &stats)
	rt := stats.Runtime
	logf("daemon runtime: %.1f MB live heap, %.1f MB heap goal, %d GC cycles, %.1f MB allocated",
		float64(rt.HeapLiveBytes)/1e6, float64(rt.HeapGoalBytes)/1e6, rt.GCCycles, float64(rt.AllocBytes)/1e6)

	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		fail(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			fail(fmt.Errorf("daemon exited uncleanly: %w", exitErr))
		}
	case <-time.After(time.Minute):
		fail(fmt.Errorf("daemon did not exit within 1m of SIGTERM"))
	}
}

// freeAddr picks an available loopback port for the daemon.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitReady polls /readyz until the daemon accepts requests.
func waitReady(c client) {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		if resp, err := httpClient.Get(c.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
	}
	fail(fmt.Errorf("daemon never became ready at %s", c.base))
}
