package exp

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// renderAt runs an experiment at the given cell parallelism and intra-run
// worker count and returns the rendered report bytes.
func renderAt(t *testing.T, id string, benches []string, par, workers int) string {
	t.Helper()
	rep, err := Run(id, Options{Scale: workload.Small, Benchmarks: benches, Parallelism: par, Workers: workers})
	if err != nil {
		t.Fatalf("%s (parallelism %d, workers %d): %v", id, par, workers, err)
	}
	var sb strings.Builder
	rep.Render(&sb)
	return sb.String()
}

// TestParallelDeterminism asserts the scheduler's guarantee on a quick
// subset that also runs under -race: the same seed produces
// byte-identical reports at parallelism/workers 1 and 8 (deterministic
// cells plus ordered reduction plus the deterministic shard merge). The
// pin (TestCellCacheFullAllRun) checks every report at 8 and 8 against
// the serial reference.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig6left", "fig7", "fig9"} {
		serial := renderAt(t, id, []string{"swim"}, 1, 1)
		parallel := renderAt(t, id, []string{"swim"}, 8, 8)
		if serial != parallel {
			t.Errorf("%s: parallelism/workers 1 and 8 reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestCellCacheCrossFigure asserts the cross-figure cache: figures that
// share cells reuse them, and re-running a figure on a warm scheduler
// performs zero new simulations. Traces are not shared that way: a trace
// memo forgets a trace when the last job holding it ends, so runs that
// follow one another each generate each preset once.
func TestCellCacheCrossFigure(t *testing.T) {
	s := runner.New(4)
	o := Options{Scale: workload.Small, Benchmarks: []string{"swim", "mcf"}, Runner: s}
	// run runs one experiment under a trace lease the test can read.
	run := func(id string) runner.Stats {
		t.Helper()
		o := o
		o.traces = leaseTraces(s, nil)
		defer o.traces.release()
		if _, err := Run(id, o); err != nil {
			t.Fatal(err)
		}
		return o.traces.stats()
	}

	// fig8 on two benchmarks: 4 analysis cells (2 LT + 2 oracle), each
	// nesting a materialization submission in the run's trace memo — the
	// 2 "mat" cells execute once and the other 2 submissions hit them, so
	// both analyses of one preset replay a single generation pass.
	tr := run("fig8")
	st1 := s.Stats()
	if st1.Submitted != 4 || st1.Executed != 4 || st1.Hits != 0 {
		t.Fatalf("fig8 stats = %+v want 4 analyses submitted and executed", st1)
	}
	if tr.Submitted != 4 || tr.Executed != 2 || tr.Hits != 2 {
		t.Fatalf("fig8 trace memo = %+v want 4 mat submissions, 2 executed, 2 hits", tr)
	}

	// fig4 normalizes against the same unlimited-DBCP oracle runs fig8
	// used: those cells must be served from the cache. That is 16
	// analysis submissions (2 presets x (1 unlimited + 7 sizes)) of which
	// the 2 oracle cells hit. Its 14 executing cells nest 14 mat
	// submissions in a fresh memo: fig8's traces went with its Run, so
	// each preset materializes once more and the other 12 hit.
	tr = run("fig4")
	st2 := s.Stats()
	if executed := st2.Executed - st1.Executed; executed != 14 {
		t.Errorf("fig4 executed %d new cells, want 14 (oracle runs cached)", executed)
	}
	if reused := st2.Hits - st1.Hits; reused != 2 {
		t.Errorf("fig4 reused %d cells, want the 2 oracle runs", reused)
	}
	if tr.Submitted != 14 || tr.Executed != 2 || tr.Hits != 12 {
		t.Errorf("fig4 trace memo = %+v want 14 mat submissions, 2 executed, 12 hits", tr)
	}

	// A second fig8 run on the warm scheduler simulates nothing new, so
	// it materializes nothing either.
	tr = run("fig8")
	st3 := s.Stats()
	if st3.Executed != st2.Executed {
		t.Errorf("second fig8 run simulated %d new cells, want 0", st3.Executed-st2.Executed)
	}
	if st3.Hits != st2.Hits+4 {
		t.Errorf("second fig8 run hit %d cells, want all 4", st3.Hits-st2.Hits)
	}
	if tr.Submitted != 0 {
		t.Errorf("second fig8 run submitted %d mat cells, want 0", tr.Submitted)
	}
}

// TestErrorPropagatesFromCells: a cell failure surfaces as the
// experiment's error with the cell identified.
func TestErrorPropagatesFromCells(t *testing.T) {
	s := runner.New(2)
	bad := runner.Cell{Key: "bad-cell", Run: func() (any, error) {
		return nil, errFake
	}}
	if _, err := s.Do(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "bad-cell") {
		t.Errorf("err = %v, want cell key in message", err)
	}
}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake failure" }

var errFake = fakeErr{}

// TestReportJSON checks the -json emission shape.
func TestReportJSON(t *testing.T) {
	rep, err := Run("power", Options{Scale: workload.Small})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		Sections []struct {
			Table struct {
				Headers []string   `json:"headers"`
				Rows    [][]string `json:"rows"`
			} `json:"table"`
		} `json:"sections"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "power" || len(decoded.Sections) == 0 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if len(decoded.Sections[0].Table.Rows) < 8 || len(decoded.Sections[0].Table.Headers) != 3 {
		t.Errorf("table shape = %d rows, %v headers",
			len(decoded.Sections[0].Table.Rows), decoded.Sections[0].Table.Headers)
	}
	if len(decoded.Notes) == 0 {
		t.Error("notes missing")
	}
}
