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

// TestParallelDeterminism asserts the tentpole guarantee: the same seed
// produces byte-identical reports at parallelism 1 and 8 and at intra-run
// Workers 1 and 8 (deterministic cells plus ordered reduction plus the
// deterministic shard merge).
func TestParallelDeterminism(t *testing.T) {
	ids := IDs()
	benches := []string{"swim", "mcf"}
	if testing.Short() {
		ids = []string{"fig6left", "fig7", "fig9"}
		benches = []string{"swim"}
	}
	for _, id := range ids {
		serial := renderAt(t, id, benches, 1, 1)
		parallel := renderAt(t, id, benches, 8, 8)
		if serial != parallel {
			t.Errorf("%s: parallelism/workers 1 and 8 reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestCellCacheCrossFigure asserts the cross-figure cache: figures that
// share cells reuse them, and re-running a figure on a warm scheduler
// performs zero new simulations.
func TestCellCacheCrossFigure(t *testing.T) {
	s := runner.New(4)
	o := Options{Scale: workload.Small, Benchmarks: []string{"swim", "mcf"}, Runner: s}

	// fig8 on two benchmarks: 4 analysis cells (2 LT + 2 oracle), each
	// nesting a materialization submission — the 2 "mat" cells execute
	// once and the other 2 submissions hit them, so both analyses of one
	// preset replay a single generation pass.
	if _, err := Run("fig8", o); err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	if st1.Submitted != 8 || st1.Executed != 6 || st1.Hits != 2 {
		t.Fatalf("fig8 stats = %+v want 8 submitted (4 analyses + 4 nested mat), 6 executed, 2 mat hits", st1)
	}

	// fig4 normalizes against the same unlimited-DBCP oracle runs fig8
	// used: those cells must be served from the cache, and every newly
	// executed cell must replay the already-materialized traces. That is
	// 16 analysis submissions (2 presets x (1 unlimited + 7 sizes)) of
	// which the 2 oracle cells hit, plus 14 nested mat submissions from
	// the executing cells — all hits.
	if _, err := Run("fig4", o); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if executed := st2.Executed - st1.Executed; executed != 14 {
		t.Errorf("fig4 executed %d new cells, want 14 (oracle runs and all traces cached)", executed)
	}
	if reused := st2.Hits - st1.Hits; reused != 16 {
		t.Errorf("fig4 reused %d cells, want 16 (2 oracle runs + 14 materializations)", reused)
	}

	// A second fig8 run on the warm scheduler simulates nothing new.
	if _, err := Run("fig8", o); err != nil {
		t.Fatal(err)
	}
	st3 := s.Stats()
	if st3.Executed != st2.Executed {
		t.Errorf("second fig8 run simulated %d new cells, want 0", st3.Executed-st2.Executed)
	}
	if st3.Hits != st2.Hits+4 {
		t.Errorf("second fig8 run hit %d cells, want all 4", st3.Hits-st2.Hits)
	}
}

// TestCellCacheFullAllRun asserts the acceptance bar for the scheduler:
// across a full `-exp all` run the shared cell cache eliminates at least
// 30% of simulations.
func TestCellCacheFullAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full -exp all run is not short")
	}
	s := runner.New(0)
	o := Options{Scale: workload.Small, Runner: s}
	for _, id := range IDs() {
		if _, err := Run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	st := s.Stats()
	if st.Submitted != st.Executed+st.Hits {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.HitRate() < 0.30 {
		t.Errorf("cell cache eliminated %.1f%% of simulations, want >= 30%% (%+v)",
			st.HitRate()*100, st)
	}
	t.Logf("full all run: %+v (%.1f%% eliminated)", st, st.HitRate()*100)
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
