// Command gatecheck runs the repository's end-to-end behaviour gates. Its
// one argument names the gate:
//
//	gatecheck warm    # make warm-check:  persistent cache, warm start (DESIGN.md §12)
//	gatecheck serve   # make serve-check: the real ltexpd binary over HTTP (DESIGN.md §14)
//	gatecheck fault   # make fault-check: disk faults, kill -9, dead-disk daemon (DESIGN.md §15)
//
// Each gate runs a fixed spec at Small scale, prints its progress to
// stderr and exits non-zero on the first failed check. The gates share
// two drivers: runLocal, an in-process job on a fresh scheduler, and
// client, an HTTP job client for a running daemon. On every exit, passed
// or failed, gatecheck stops the processes it started and removes its
// temporary directories.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

var gates = map[string]func(){
	"warm":  warmGate,
	"serve": serveGate,
	"fault": faultGate,
}

// gate names the running gate in every message.
var gate = "gatecheck"

func main() {
	// The fault gate re-executes this binary as its kill -9 victim.
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return
	}
	var run func()
	if len(os.Args) == 2 {
		run = gates[os.Args[1]]
	}
	if run == nil {
		fmt.Fprintln(os.Stderr, "usage: gatecheck warm|serve|fault")
		os.Exit(2)
	}
	gate = "gatecheck " + os.Args[1]
	logf("%s", buildinfo.String("gatecheck"))
	run()
	logf("OK")
	exit(0)
}

// cleanups run, last registered first, whenever the gate exits.
var cleanups []func()

// atExit registers f to run when the gate exits, passed or failed.
func atExit(f func()) { cleanups = append(cleanups, f) }

// exit runs the cleanups and ends the process: os.Exit skips deferred
// calls, so every process and directory a gate must not leak behind is
// released here instead.
func exit(code int) {
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	os.Exit(code)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, gate+": "+format+"\n", args...)
}

func fail(err error) {
	logf("FAIL: %v", err)
	exit(1)
}

// tempDir makes a temporary directory that is removed at exit.
func tempDir(pattern string) string {
	dir, err := os.MkdirTemp("", "gatecheck-"+pattern+"-*")
	if err != nil {
		fail(err)
	}
	atExit(func() { os.RemoveAll(dir) })
	return dir
}

// runLocal runs spec in-process on a fresh scheduler, with cdir (nil for
// none) as its persistent cache, and returns the report bytes ltexp would
// print together with the job's counters.
func runLocal(spec exp.JobSpec, cdir *cachedir.Dir) (string, *exp.JobResult) {
	sched := runner.New(0)
	if cdir != nil {
		sched.SetStore(cdir)
	}
	spec.Cache = cdir
	res, err := exp.RunJob(context.Background(), spec, sched)
	if err != nil {
		fail(err)
	}
	var sb strings.Builder
	if err := res.RenderText(&sb); err != nil {
		fail(err)
	}
	return sb.String(), res
}

// client drives a daemon's job API at base.
type client struct{ base string }

var httpClient = &http.Client{Timeout: 30 * time.Second}

// jobTimeout bounds how long one job may take to finish.
const jobTimeout = 10 * time.Minute

// do sends one request and returns the status and body.
func (c client) do(method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(fmt.Errorf("%s %s: %w", method, path, err))
	}
	return resp.StatusCode, raw
}

// get fetches path, failing the gate on any non-2xx status.
func (c client) get(path string) []byte {
	code, body := c.do(http.MethodGet, path, nil)
	if code/100 != 2 {
		fail(fmt.Errorf("GET %s: %d %s", path, code, body))
	}
	return body
}

// getJSON fetches path and decodes it into v.
func (c client) getJSON(path string, v any) { mustJSON(c.get(path), v) }

// jobStatus is the part of a job's status the gates read.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Cells *struct {
		Submitted int64 `json:"submitted"`
		Executed  int64 `json:"executed"`
	} `json:"cells"`
}

// runJob submits spec, polls it to done and returns its final status.
func (c client) runJob(spec exp.JobSpec) jobStatus {
	body, err := json.Marshal(spec)
	if err != nil {
		fail(err)
	}
	code, raw := c.do(http.MethodPost, "/v1/jobs", body)
	if code != http.StatusAccepted {
		fail(fmt.Errorf("submit: %d %s", code, raw))
	}
	var st jobStatus
	mustJSON(raw, &st)
	deadline := time.Now().Add(jobTimeout)
	for {
		switch st.State {
		case "done":
			return st
		case "failed", "cancelled":
			fail(fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error))
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("job %s still %s after %v", st.ID, st.State, jobTimeout))
		}
		time.Sleep(50 * time.Millisecond)
		c.getJSON("/v1/jobs/"+st.ID, &st)
	}
}

// report runs spec to done and returns its report bytes.
func (c client) report(spec exp.JobSpec) string {
	return string(c.get("/v1/jobs/" + c.runJob(spec).ID + "/report"))
}

// health is the daemon's /healthz payload.
type health struct {
	Status       string `json:"status"`
	Cache        string `json:"cache"`
	Version      string `json:"version"`
	CacheVersion string `json:"cache_version"`
}

func (c client) health() health {
	var h health
	c.getJSON("/healthz", &h)
	return h
}

func mustJSON(b []byte, v any) {
	if err := json.Unmarshal(b, v); err != nil {
		fail(fmt.Errorf("bad JSON %q: %w", b, err))
	}
}
