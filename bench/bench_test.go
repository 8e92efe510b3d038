package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// Toy sizes of the four workloads, small enough for a smoke test: Small
// scale, one preset, a one-second window.
var (
	expAllToy = expAllParams{
		spec:   exp.JobSpec{Experiments: []string{"all"}, Scale: "small", Benchmarks: []string{"gzip"}},
		setups: 1,
	}
	simLargeToy = simLargeParams{
		scale:       workload.Small,
		presets:     []string{"gzip"},
		setups:      1,
		ladderScale: workload.Small,
		ladderRefs:  1 << 14,
	}
	daemonToy = daemonParams{
		pool:        pool([]string{"gzip"}, "fig8", "table2"),
		coldExps:    []string{"fig2"},
		coldBenches: []string{"gzip"},
		setups:      1,
		verify:      1,
	}
)

var toyWorkloads = map[string]func(*env) (*outcome, error){
	"expall-cold":  func(e *env) (*outcome, error) { return expAllCold(e, expAllToy) },
	"sim-large":    func(e *env) (*outcome, error) { return simLarge(e, simLargeToy) },
	"daemon-warm":  func(e *env) (*outcome, error) { return daemon(e, daemonToy, false) },
	"daemon-mixed": func(e *env) (*outcome, error) { return daemon(e, daemonToy, true) },
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON holds the Go catalog and BENCHMARK.json
// together: the same workloads, and the same metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames())
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: catalog %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer(), b.PerLayer)
}

func toyEnv(t *testing.T, name string, traced bool) *env {
	t.Helper()
	e, err := newEnv("..", t.TempDir(), name, 1, time.Second, traced, testWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// lastJSON parses the result line report printed last.
func lastJSON(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestWorkloadsToySize runs each workload's code at toy size, traced, and
// checks it measures every end-to-end metric and every per-layer metric
// the catalog assigns it, and that the result line carries every
// per-layer metric with its unit.
func TestWorkloadsToySize(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e := toyEnv(t, name, true)
			o, err := toyWorkloads[name](e)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.problems)
			}
			for _, d := range endToEnd {
				if v, ok := o.e2e[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v, %v; want a positive measurement", d.name, v, ok)
				}
			}
			for _, d := range perLayer() {
				if _, ok := o.layer[d.name]; (d.workloads == nil || slices.Contains(d.workloads, name)) && !ok {
					t.Errorf("per-layer %s not measured", d.name)
				}
			}
			var out bytes.Buffer
			if code := report(e, o, &out); code != 0 {
				t.Fatalf("report exited %d:\n%s", code, out.String())
			}
			res := lastJSON(t, out.Bytes())
			if !res.Correct || len(res.Metrics) != len(b.PerLayer) {
				t.Fatalf("result %+v", res)
			}
			for _, m := range b.PerLayer {
				if got := res.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			printed := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range b.EndToEnd {
				if printed[m.Name] != m.Unit {
					t.Errorf("end-to-end %s printed with unit %q, BENCHMARK.json says %q", m.Name, printed[m.Name], m.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(e.out, "spans", e.recordName()+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestCorruptReferenceFails checks that a wrong reference counts the
// operations it judges as failed, and that the run exits nonzero.
func TestCorruptReferenceFails(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "reference.md")
	if err := os.WriteFile(ref, []byte("```\nnot the output\n```\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pin := filepath.Join(dir, "pin.sha256")
	if err := os.WriteFile(pin, []byte("0000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	fromRoot := func(p string) string { r, _ := filepath.Rel(root, p); return r }
	expAll := expAllToy
	expAll.spec.Experiments = []string{"fig8"}
	expAll.reference = fromRoot(ref)
	sim := simLargeToy
	sim.digestFile = fromRoot(pin)
	for name, run := range map[string]func(*env) (*outcome, error){
		"expall-cold": func(e *env) (*outcome, error) { return expAllCold(e, expAll) },
		"sim-large":   func(e *env) (*outcome, error) { return simLarge(e, sim) },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e := toyEnv(t, name, false)
			o, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			code := report(e, o, &out)
			res := lastJSON(t, out.Bytes())
			if code == 0 || res.Correct || res.Failed == 0 || !strings.Contains(out.String(), "fail_ratio ") {
				t.Fatalf("exit %d, result %+v; want a nonzero exit and failed operations", code, res)
			}
		})
	}
}
