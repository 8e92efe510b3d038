package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

// metricDef is one catalog entry. BENCHMARK.json lists the same names and
// units (the smoke test holds the two together).
type metricDef struct {
	name, unit string
	// workloads names the workloads that measure the metric; nil means
	// every workload. Other workloads never call the layer and report 0.
	workloads []string
}

// endToEnd are the metrics a user of the system sees. Every workload
// measures all of them; "op" is the workload's unit of work: one
// `ltexp -exp all` job, one round of twelve simulations, or one daemon
// job from POST to report bytes (warm or cold).
var endToEnd = []metricDef{
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// ladderPresets are the streams the traced sim-large run climbs the
// simulation ladder on: a pointer chase and a streaming sweep.
var ladderPresets = []string{"mcf", "swim"}

// ladderRungs are the per-reference costs of each layer of the simulation
// pipeline, each measured as its rung minus the rung below (see ladder).
var ladderRungs = []struct{ name, unit string }{
	{"workload.gen_ns_per_ref", "ns/ref"},
	{"trace.encode_ns_per_ref", "ns/ref"},
	{"trace.bytes_per_ref", "B/ref"},
	{"trace.replay_ns_per_ref", "ns/ref"},
	{"cache.l1_ns_per_ref", "ns/ref"},
	{"sim.coverage_ns_per_ref", "ns/ref"},
	{"core.ltcords_ns_per_ref", "ns/ref"},
	{"cpu.timing_ns_per_ref", "ns/ref"},
	{"cpu.timing_lt_ns_per_ref", "ns/ref"},
	{"dbcp.ns_per_ref", "ns/ref"},
	{"corr.analyze_ns_per_ref", "ns/ref"},
}

var (
	inProcess  = []string{"expall-cold", "sim-large"}
	withRunner = []string{"expall-cold", "daemon-warm", "daemon-mixed"}
	daemons    = []string{"daemon-warm", "daemon-mixed"}
)

// perLayer is the catalog of per-layer metrics, named by module.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, wls []string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, wls})
		}
	}
	simLarge := []string{"sim-large"}
	for _, r := range ladderRungs {
		for _, p := range ladderPresets {
			add(r.unit, simLarge, r.name+"."+p)
		}
	}
	add("Mref/s", simLarge, "sim.mrefs_per_s")
	expAll := []string{"expall-cold"}
	for _, id := range exp.IDs() {
		add("s", expAll, "exp."+id+".s")
		add("count", expAll, "exp."+id+".cells_executed")
	}
	add("ms", expAll, "exp.render_ms")
	add("count", withRunner, "runner.submitted", "runner.executed", "runner.mem_hits", "runner.disk_hits", "runner.persisted")
	add("ratio", withRunner, "runner.eliminated_ratio")
	add("count", daemons, "cachedir.hits", "cachedir.misses")
	add("ratio", daemons, "cachedir.hit_ratio")
	add("count", daemons, "cachedir.puts", "cachedir.trace_hits", "cachedir.trace_puts")
	add("MB", daemons, "cachedir.bytes")
	add("count", daemons, "cachedir.io_errors")
	add("ms", daemons, "server.submit_ms_p50", "server.queue_ms_p50", "server.queue_ms_tail",
		"server.run_ms_p50", "server.run_ms_tail", "server.events_lag_ms_p50", "server.report_ms_p50")
	add("count", daemons, "server.http_errors")
	add("ms", []string{"daemon-mixed"}, "server.cold_job_ms_p50")
	add("s", inProcess, "runtime.gc_cpu_s")
	add("count", inProcess, "runtime.gc_cycles")
	add("MB", inProcess, "runtime.alloc_mb_per_op")
	return defs
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest of p99.9, p99, p90 and p50 that has at least
// ten samples beyond it (nearest rank); label names the percentile. With
// fewer than 20 samples no percentile qualifies and tail falls back to
// the median, which, unlike the maximum, one slow sample cannot move.
// xs is sorted in place.
func tail(xs []float64) (v float64, label string) {
	n := float64(len(xs))
	for _, p := range []float64{99.9, 99, 90, 50} {
		if n*(1-p/100) >= 10 {
			sort.Float64s(xs)
			return xs[int(math.Ceil(p/100*n))-1], fmt.Sprintf("p%g", p)
		}
	}
	return median(xs), "median (too few ops for a tail)"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is this process's CPU time, high-water RSS and runtime counters.
type usage struct {
	cpu    time.Duration
	rssMB  float64
	allocs float64 // cumulative heap bytes allocated
	gcCPU  float64 // cumulative GC CPU seconds
	gcs    float64 // completed GC cycles
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func selfUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports kilobytes
		allocs: val(0),
		gcCPU:  val(1),
		gcs:    val(2),
	}
}

// inProcessMetrics fills the metrics an in-process workload shares: CPU
// per op, peak RSS and the runtime's GC and allocation deltas.
func inProcessMetrics(o *outcome, before, after usage, ops int) {
	o.e2e["cpu_ms_per_op"] = ms(after.cpu-before.cpu) / float64(ops)
	o.e2e["peak_rss_mb"] = after.rssMB
	o.layer["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
	o.layer["runtime.gc_cycles"] = after.gcs - before.gcs
	o.layer["runtime.alloc_mb_per_op"] = (after.allocs - before.allocs) / 1e6 / float64(ops)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux configuration Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// resume after the last ')': state is field 3, utime 14, stime 15.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS returns the high-water RSS (VmHWM) of process pid in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
