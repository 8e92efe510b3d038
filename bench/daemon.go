package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

// jobSpec is one daemon job: one experiment on a list of benchmarks.
type jobSpec struct {
	exp     string
	benches []string
	seed    uint64
}

func (s jobSpec) job() exp.JobSpec {
	return exp.JobSpec{Experiments: []string{s.exp}, Scale: "small", Seed: s.seed, Benchmarks: s.benches}
}

func (s jobSpec) String() string { return fmt.Sprintf("%s/%v/seed %d", s.exp, s.benches, s.seed) }

// daemonParams sizes the daemon workloads.
type daemonParams struct {
	// pool is the warm pool; every spec runs at the run's seed.
	pool []jobSpec
	// The cold client of daemon-mixed cycles through every pairing of
	// coldExps and coldBenches, each time at a seed no earlier job used, so
	// each run makes the same mix of cold work whatever its seed.
	coldExps, coldBenches []string
	// setups is how many fresh daemons set-up starts; setup_s is the median.
	setups int
	// verify is how many cold jobs are recomputed in-process afterwards.
	verify int
}

// daemonFull's pool holds one spec per experiment id, so warm jobs walk
// every experiment's reduction and rendering. Multi-experiment specs are
// left out: their bursts of progress events can overflow an SSE
// subscriber's buffer, which then drops the final done event.
var daemonFull = daemonParams{
	pool: pool([]string{"swim", "mcf", "gzip"}, "ablations", "consol", "convergence", "fig10", "fig11", "fig12",
		"fig2", "fig4", "fig6left", "fig6right", "fig7", "fig8", "fig9", "power", "table2", "table3"),
	coldExps:    []string{"fig8", "table2", "fig6left", "fig7", "fig2", "fig12"},
	coldBenches: []string{"swim", "mcf", "gzip"},
	setups:      15,
	verify:      5,
}

// pool returns one single-experiment spec per id, each on benches.
func pool(benches []string, ids ...string) []jobSpec {
	specs := make([]jobSpec, len(ids))
	for i, id := range ids {
		specs[i] = jobSpec{exp: id, benches: benches}
	}
	return specs
}

// clients is the number of closed-loop clients, one keep-alive
// connection each.
const clients = 2

// daemon drives a real ltexpd child over HTTP. Before the measured window
// the pool runs in-process against the cache directory, which fills the
// disk tier and yields the reference report bytes. Set-up starts a fresh
// daemon on that directory and passes over the pool once, reviving every
// cell from disk. In the window two clients each submit a job, wait for
// its SSE done event, fetch its report and compare the bytes, then go
// again. In daemon-mixed the second client submits cold jobs instead.
func daemon(e *env, p daemonParams, mixed bool) (*outcome, error) {
	o := newOutcome()
	bin, err := goBuild(e, "./cmd/ltexpd")
	if err != nil {
		return nil, err
	}
	seed := max(e.seed, 1) // the daemon reads seed 0 as 1
	pool := make([]jobSpec, len(p.pool))
	for i, s := range p.pool {
		s.seed = seed
		pool[i] = s
	}
	dir := filepath.Join(e.work, "cache")
	want, err := fillCache(e, o, dir, pool)
	if err != nil {
		return nil, err
	}

	var d *ltexpd
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	for range p.setups {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		runtime.GC() // the benchmark's own collector stays out of the timing
		t := time.Now()
		if d, err = startDaemon(e, bin, dir); err != nil {
			return nil, err
		}
		c := newClient(d.base)
		for i, s := range pool {
			rep, _, err := c.run(e, s, false)
			o.done(checkReport(s, rep, want[i], err))
		}
		c.close()
		setups = append(setups, time.Since(t).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	all, httpErrors := runClients(e, d.base, p, pool, want, mixed, seed)
	elapsed := time.Since(t0)
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	peak, err := procPeakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	st, err := d.stats(e.ctx)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	var warm, cold, submit, queue, running, lag, report []float64
	var coldDone []jobRecord
	for _, r := range all {
		o.done(r.err)
		if r.err != nil {
			continue
		}
		if r.cold {
			cold = append(cold, ms(r.t.total))
			coldDone = append(coldDone, r)
		} else {
			warm = append(warm, ms(r.t.total))
		}
		submit = append(submit, ms(r.t.submit))
		report = append(report, ms(r.t.report))
		if s := r.t.status; s != nil && s.Started != nil && s.Finished != nil {
			queue = append(queue, ms(s.Started.Sub(s.Created)))
			running = append(running, ms(s.Finished.Sub(*s.Started)))
			lag = append(lag, ms(r.t.doneAt.Sub(*s.Finished)))
		}
	}
	verifyCold(e, o, coldDone, p.verify, seed)

	// The op is a job of either class. In daemon-mixed warm jobs outnumber
	// cold ones about 200 to 1, so op_p50_ms reads the warm jobs as the
	// cold ones slow them, and op_tail_ms lands among the cold jobs.
	if len(warm) == 0 || (mixed && len(cold) == 0) {
		return nil, fmt.Errorf("%d warm and %d cold jobs completed in the %s window", len(warm), len(cold), e.window)
	}
	ops := append(append([]float64(nil), warm...), cold...)
	o.e2e["ops_per_s"] = float64(len(ops)) / elapsed.Seconds()
	o.e2e["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(len(ops))
	o.e2e["peak_rss_mb"] = peak
	tailMS, label := tail(ops)
	o.note("op_tail_ms is the %s of %d jobs: %d warm and %d cold", label, len(ops), len(warm), len(cold))
	o.e2e["op_tail_ms"] = tailMS
	o.e2e["op_p50_ms"] = median(ops)
	o.layer["server.cold_job_ms_p50"] = median(cold)

	o.layer["server.submit_ms_p50"] = median(submit)
	o.layer["server.queue_ms_p50"] = median(queue)
	o.layer["server.queue_ms_tail"], _ = tail(queue)
	o.layer["server.run_ms_p50"] = median(running)
	o.layer["server.run_ms_tail"], _ = tail(running)
	o.layer["server.events_lag_ms_p50"] = median(lag)
	o.layer["server.report_ms_p50"] = median(report)
	o.layer["server.http_errors"] = float64(httpErrors)
	runnerMetrics(o, st.Cells)
	if cc := st.Cache; cc != nil {
		o.layer["cachedir.hits"] = float64(cc.Hits)
		o.layer["cachedir.misses"] = float64(cc.Misses)
		o.layer["cachedir.hit_ratio"] = float64(cc.Hits) / float64(max(cc.Hits+cc.Misses, 1))
		o.layer["cachedir.puts"] = float64(cc.Puts)
		o.layer["cachedir.trace_hits"] = float64(cc.TraceHits)
		o.layer["cachedir.trace_puts"] = float64(cc.TracePuts)
		o.layer["cachedir.bytes"] = float64(st.CacheBytes) / 1e6
		o.layer["cachedir.io_errors"] = float64(cc.IOErrors)
	}
	return o, nil
}

// runClients runs the closed-loop clients until the window has passed and
// returns every job they ran and how many of their requests failed.
func runClients(e *env, base string, p daemonParams, pool []jobSpec, want [][]byte, mixed bool, seed uint64) ([]jobRecord, int) {
	var recs [clients][]jobRecord
	var errs [clients]int
	var wg sync.WaitGroup
	deadline := time.Now().Add(e.window)
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			cold := mixed && ci == clients-1
			rng := rand.New(rand.NewPCG(seed, uint64(ci)))
			for k := uint64(0); time.Now().Before(deadline) && e.ctx.Err() == nil; k++ {
				r := jobRecord{cold: cold}
				if cold {
					n := uint64(len(p.coldExps))
					r.spec = jobSpec{p.coldExps[k%n], []string{p.coldBenches[k/n%uint64(len(p.coldBenches))]}, seed + 1 + k}
				} else {
					r.pool = rng.IntN(len(pool))
					r.spec = pool[r.pool]
				}
				var rep []byte
				rep, r.t, r.err = c.run(e, r.spec, cold || e.tr != nil)
				switch {
				case !cold:
					r.err = checkReport(r.spec, rep, want[r.pool], r.err)
				case r.err == nil && (r.t.status.Cells == nil || r.t.status.Cells.Executed == 0):
					r.err = fmt.Errorf("cold job %v executed no cells", r.spec)
				default:
					r.report = rep
				}
				recs[ci] = append(recs[ci], r)
			}
			errs[ci] = c.errors
		}()
	}
	wg.Wait()
	var all []jobRecord
	var failed int
	for ci := range clients {
		all = append(all, recs[ci]...)
		failed += errs[ci]
	}
	return all, failed
}

// jobRecord is one job a window client ran.
type jobRecord struct {
	spec   jobSpec
	pool   int // index into the pool (warm jobs)
	cold   bool
	t      jobTiming
	report []byte // cold jobs only, for verifyCold
	err    error
}

func checkReport(s jobSpec, got, want []byte, err error) error {
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("job %v: report (%d bytes) differs from the in-process run (%d bytes)", s, len(got), len(want))
	}
	return err
}

// fillCache runs the pool in-process against the cache directory, which
// fills its disk tier, and returns each spec's report bytes.
func fillCache(e *env, o *outcome, dir string, pool []jobSpec) ([][]byte, error) {
	cdir, err := exp.OpenCache(dir, cachedir.ReadWrite, 0)
	if err != nil {
		return nil, err
	}
	sched := runner.New(0)
	sched.SetStore(cdir)
	t := time.Now()
	want := make([][]byte, len(pool))
	for i, s := range pool {
		js := s.job()
		js.Cache = cdir
		res, err := exp.RunJob(e.ctx, js, sched)
		var buf bytes.Buffer
		if err == nil {
			err = res.RenderText(&buf)
		}
		o.done(err)
		if err != nil {
			return nil, fmt.Errorf("in-process job %v: %w", s, err)
		}
		want[i] = buf.Bytes()
	}
	e.logf("filled the cache with %d pool jobs in %.1fs", len(pool), time.Since(t).Seconds())
	return want, nil
}

// verifyCold recomputes a seeded sample of n cold jobs in-process, with
// no cache, and compares their reports with the daemon's.
func verifyCold(e *env, o *outcome, done []jobRecord, n int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, clients))
	for _, i := range rng.Perm(len(done))[:min(n, len(done))] {
		r := done[i]
		res, err := exp.RunJob(e.ctx, r.spec.job(), runner.New(0))
		var buf bytes.Buffer
		if err == nil {
			err = res.RenderText(&buf)
		}
		o.done(checkReport(r.spec, r.report, buf.Bytes(), err))
	}
}

// ltexpd is a running daemon child process.
type ltexpd struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
	err    error // the result of Wait, once exited is closed
}

// startDaemon starts ltexpd with default flags on the cache directory and
// returns once /readyz answers 200.
func startDaemon(e *env, bin, dir string) (*ltexpd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	log, err := os.OpenFile(filepath.Join(e.work, "ltexpd.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", dir)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &ltexpd{cmd: cmd, base: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	c := newClient(d.base)
	defer c.close()
	for {
		if _, err := c.do(e.ctx, http.MethodGet, "/readyz", nil); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			d.log.Close()
			return nil, fmt.Errorf("ltexpd exited before it was ready: %v", d.err)
		case <-e.ctx.Done():
			d.stop()
			return nil, e.ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop interrupts the daemon, which drains and exits, and waits for it.
func (d *ltexpd) stop() error {
	defer d.log.Close()
	d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("ltexpd did not exit within 30s of SIGINT")
	}
	if d.err != nil {
		return fmt.Errorf("ltexpd exited uncleanly: %w", d.err)
	}
	return nil
}

// daemonStats is the part of GET /v1/stats the benchmark reads: counters
// since the daemon started.
type daemonStats struct {
	Cells      runner.Stats       `json:"cells"`
	Cache      *cachedir.Counters `json:"cache"`
	CacheBytes int64              `json:"cache_bytes"`
}

func (d *ltexpd) stats(ctx context.Context) (daemonStats, error) {
	var st daemonStats
	c := newClient(d.base)
	defer c.close()
	raw, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// client is one closed-loop client holding one keep-alive connection.
type client struct {
	base   string
	hc     *http.Client
	errors int // failed requests: transport errors and non-2xx answers
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the whole response body.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errors++
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if err != nil {
		c.errors++
		return nil, err
	}
	return raw, nil
}

// jobTiming is the client's view of one job.
type jobTiming struct {
	total  time.Duration // POST to report bytes received
	submit time.Duration // POST /v1/jobs round trip
	report time.Duration // GET report round trip
	doneAt time.Time     // when the SSE stream delivered done and ended
	status *jobStatus    // GET /v1/jobs/{id}, when requested
}

type jobStatus struct {
	Created  time.Time     `json:"created"`
	Started  *time.Time    `json:"started"`
	Finished *time.Time    `json:"finished"`
	Cells    *runner.Stats `json:"cells"`
}

// run submits s, waits for the job's SSE done event, optionally reads its
// status, and fetches its report.
func (c *client) run(e *env, s jobSpec, withStatus bool) ([]byte, jobTiming, error) {
	var jt jobTiming
	body, err := json.Marshal(s.job())
	if err != nil {
		return nil, jt, err
	}
	t0 := time.Now()
	raw, err := c.do(e.ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return nil, jt, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		return nil, jt, fmt.Errorf("submit %v: bad answer %q", s, raw)
	}
	t1 := time.Now()
	events, err := c.do(e.ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return nil, jt, err
	}
	t2 := time.Now()
	if _, state, _ := bytes.Cut(events, []byte("event: done\ndata: ")); !bytes.HasPrefix(state, []byte("done\n")) {
		return nil, jt, fmt.Errorf("job %v (%s) did not end done: %q", s, sub.ID, events)
	}
	t3 := t2
	if withStatus {
		raw, err := c.do(e.ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		if err != nil {
			return nil, jt, err
		}
		jt.status = new(jobStatus)
		if err := json.Unmarshal(raw, jt.status); err != nil {
			return nil, jt, fmt.Errorf("status of %s: %w", sub.ID, err)
		}
		t3 = time.Now()
	}
	rep, err := c.do(e.ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/report", nil)
	if err != nil {
		return nil, jt, err
	}
	t4 := time.Now()
	jt.total, jt.submit, jt.report, jt.doneAt = t4.Sub(t0), t1.Sub(t0), t4.Sub(t3), t2
	if e.tr != nil {
		root := e.tr.record(0, sub.ID, "bench.job", t0, t4)
		e.tr.record(root, sub.ID, "server.submit", t0, t1)
		e.tr.record(root, sub.ID, "server.events", t1, t2)
		if withStatus {
			e.tr.record(root, sub.ID, "server.status", t2, t3)
		}
		e.tr.record(root, sub.ID, "server.report", t3, t4)
	}
	return rep, jt, nil
}
