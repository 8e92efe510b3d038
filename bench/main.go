// Command bench is the repository benchmark. One invocation runs one
// workload in a fresh process, checks the program's outputs, prints every
// metric as "name value unit" and ends with one JSON line:
//
//	bash bench/run.sh --workload sim-large --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run records spans around every call into a layer, writes them to
// .bench_build/spans/, and the JSON carries the per-layer metrics. The
// workloads, metrics and the layer each metric belongs to are described
// in README.md; BENCHMARK.json at the repository root lists them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds a whole invocation, set-up and checks included, so a
// wedged daemon or client fails the run instead of hanging it.
const runDeadline = 170 * time.Second

// workloads maps each workload name to its full-size run. Sizes, presets
// and spec pools are constants of the benchmark, never flags, so a parent
// commit and a change always measure identical settings.
var workloads = map[string]func(*env) (*outcome, error){
	"expall-cold":  func(e *env) (*outcome, error) { return expAllCold(e, expAllFull) },
	"sim-large":    func(e *env) (*outcome, error) { return simLarge(e, simLargeFull) },
	"daemon-warm":  func(e *env) (*outcome, error) { return daemon(e, daemonFull, false) },
	"daemon-mixed": func(e *env) (*outcome, error) { return daemon(e, daemonFull, true) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload from the repository in the working
// directory and reports it. It returns the process exit code: 0 only
// when every operation succeeded and every output checked out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 0, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: bench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	e, err := newEnv(".", ".bench_build", *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer e.close()
	out, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	return report(e, out, stdout)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is what every workload receives: where the repository is, its own
// scratch directory, the seed, the window and (in traced runs) the tracer.
type env struct {
	ctx    context.Context
	cancel context.CancelFunc
	root   string // repository root: go.mod, EXPERIMENTS.md, cmd/
	out    string // results, spans and scratch (.bench_build)
	work   string // this run's scratch directory under out, removed at exit
	name   string
	seed   uint64
	window time.Duration
	tr     *tracer // nil unless traced
	log    io.Writer
}

func newEnv(root, out, name string, seed uint64, window time.Duration, traced bool, log io.Writer) (*env, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-"+name+"-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	e := &env{ctx: ctx, cancel: cancel, root: root, out: out, work: work, name: name, seed: seed, window: window, log: log}
	if traced {
		e.tr = newTracer()
	}
	return e, nil
}

func (e *env) close() {
	e.cancel()
	os.RemoveAll(e.work)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

// outcome is one workload run: operations attempted and failed, the
// problems behind the failures, notes on how metrics were taken, and the
// metrics it measured.
type outcome struct {
	attempted, failed int
	problems, notes   []string
	e2e, layer        map[string]float64
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// done records one attempted operation; a non-nil err (a failed call or
// a wrong output) counts it as failed.
func (o *outcome) done(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's metrics, writes its record under
// .bench_build/results (and its spans under .bench_build/spans when
// traced) and prints the result JSON as the last line of stdout.
func report(e *env, o *outcome, stdout io.Writer) int {
	for _, p := range o.problems {
		e.logf("FAIL: %s", p)
	}
	e2e := pick(endToEnd, o.e2e, false)
	layer := pick(perLayer(), o.layer, true)
	if e2e == nil {
		e.logf("workload %s did not measure every end-to-end metric", e.name)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	printMetrics(stdout, endToEnd, e2e)
	fmt.Fprintf(stdout, "fail_ratio %.6g ratio\n", float64(o.failed)/float64(max(o.attempted, 1)))
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: e2e}
	if e.tr != nil {
		printMetrics(stdout, perLayer(), layer)
		e.tr.summarize(stdout)
		printOverhead(e, stdout, e2e)
		if err := e.tr.write(filepath.Join(e.out, "spans", e.recordName()+".json"), e.name, e.seed); err != nil {
			e.logf("writing spans: %v", err)
			return 1
		}
		res.Metrics = layer
	}
	rec := struct {
		result
		EndToEnd map[string]metricValue `json:"end_to_end"`
		PerLayer map[string]metricValue `json:"per_layer"`
	}{res, e2e, layer}
	if err := writeJSON(filepath.Join(e.out, "results", e.recordName()+".json"), rec); err != nil {
		e.logf("writing result record: %v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		e.logf("encoding result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func (e *env) recordName() string {
	t := 0
	if e.tr != nil {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", e.name, e.seed, t)
}

// pick turns measured values into the catalog's metrics. Per-layer
// metrics of layers the workload never calls read 0 (zeroFill); a
// missing end-to-end metric makes pick return nil.
func pick(defs []metricDef, got map[string]float64, zeroFill bool) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !zeroFill {
			return nil
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%s %.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
}

// printOverhead compares this traced run's end-to-end metrics with the
// untraced run of the same workload and seed, when one is on record.
func printOverhead(e *env, w io.Writer, traced map[string]metricValue) {
	var untraced struct {
		EndToEnd map[string]metricValue `json:"end_to_end"`
	}
	path := filepath.Join(e.out, "results", fmt.Sprintf("%s-seed%d-trace0.json", e.name, e.seed))
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &untraced)
	}
	if err != nil {
		fmt.Fprintf(w, "tracing overhead: no untraced run of %s at seed %d on record\n", e.name, e.seed)
		return
	}
	for _, d := range endToEnd {
		base := untraced.EndToEnd[d.name].Value
		if base == 0 {
			continue
		}
		fmt.Fprintf(w, "tracing overhead %s %+.1f%% (traced %.6g, untraced %.6g %s)\n",
			d.name, (traced[d.name].Value/base-1)*100, traced[d.name].Value, base, d.unit)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// goBuild builds the repository's package pkg into the run's scratch
// directory and returns the binary's path.
func goBuild(e *env, pkg string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(e.work, filepath.Base(pkg)))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin, pkg)
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = e.log, e.log
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return bin, nil
}
