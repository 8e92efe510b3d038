package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/runner"
)

// experimentsFile holds the one pin of what the simulator prints: its
// first fenced block is every report at Small scale, seed 1, on each
// experiment's default benchmarks, exactly as `ltexp -exp all -q
// -parallel 1` writes it (`make experiments`).
const experimentsFile = "../../EXPERIMENTS.md"

// The pin's sha256 and the persistent-cache version it was made under: a
// tripwire, not a check. Cached cell results are addressed by
// CacheVersion, so new report bytes under an unchanged version would let
// a warm cache serve stale results. These two constants only make every
// re-pin a deliberate edit that stops at that question; they cannot tell
// a cell result that changed under its key from a change that only
// alters rendering, and updating the sha alone always passes. The answer
// rests on the bump rule (DESIGN.md §12): if any cell's result changed
// for an unchanged key, bump CacheVersion and both constants; if only
// the rendering changed, update the sha alone and say so in CHANGES.md.
const (
	pinnedCacheVersion = "exp3"
	pinnedSHA256       = "81091908e084f1fc9d06aaac2706b8a7d492015e5965cfd91763027a76506f16"
)

// pinnedBlock returns the first fenced block of EXPERIMENTS.md and the
// file line its first line sits on.
func pinnedBlock(t *testing.T) ([]byte, int) {
	t.Helper()
	raw, err := os.ReadFile(experimentsFile)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := bytes.Cut(raw, []byte("```\n"))
	block, _, closed := bytes.Cut(rest, []byte("```\n"))
	if !ok || !closed {
		t.Fatalf("%s has no fenced block", experimentsFile)
	}
	return block, bytes.Count(head, []byte("\n")) + 2
}

// firstDiff names the first line where got departs from want: the
// experiment whose report holds it, its EXPERIMENTS.md line number, and
// both lines. first is the file line of want's first line.
func firstDiff(got, want []byte, first int) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	lineAt := func(lines []string, i int) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "(end of output)"
	}
	id := "(no report yet)"
	for i := range max(len(g), len(w)) {
		if i < len(g) && strings.HasPrefix(g[i], "== ") {
			id, _, _ = strings.Cut(strings.TrimPrefix(g[i], "== "), ":")
		}
		if gl, wl := lineAt(g, i), lineAt(w, i); gl != wl {
			return fmt.Sprintf("first difference in %s, EXPERIMENTS.md line %d:\n  got:  %s\n  want: %s",
				id, first+i, gl, wl)
		}
	}
	return "no line differs"
}

// TestCellCacheFullAllRun is the pin. It runs the whole `-exp all` job at
// Small scale, seed 1 — what `ltexp -exp all -q -parallel 8 -workers 8`
// prints — and requires those bytes to equal EXPERIMENTS.md's fenced
// block. The block is the serial reference, so the same run checks that
// every report is deterministic across cell and intra-run parallelism. It
// also holds the scheduler's acceptance bar: across the run the job's
// cells — results on the shared scheduler plus traces in the job's memo
// (JobResult.Stats) — are at least 30% eliminated.
func TestCellCacheFullAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full -exp all run is not short")
	}
	s := runner.New(8)
	res, err := RunJob(context.Background(), JobSpec{Workers: 8}, s)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.RenderText(&got); err != nil {
		t.Fatal(err)
	}
	want, first := pinnedBlock(t)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("full run (%d bytes) differs from the fenced block of EXPERIMENTS.md (%d bytes); %s\n"+
			"if the change is intended, re-pin with `make experiments` and update pinnedSHA256",
			got.Len(), len(want), firstDiff(got.Bytes(), want, first))
	}
	st := res.Stats
	if st.Submitted != st.Executed+st.Hits {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.HitRate() < 0.30 {
		t.Errorf("cell cache eliminated %.1f%% of simulations, want >= 30%% (%+v)",
			st.HitRate()*100, st)
	}
	t.Logf("full all run: %+v (%.1f%% eliminated)", st, st.HitRate()*100)
}

// pinnedReport returns id's report as the pin holds it: its section of
// EXPERIMENTS.md's fenced block without the blank line that separates it
// from the next report, and the file line its header sits on.
func pinnedReport(t *testing.T, id string) (string, int) {
	t.Helper()
	block, first := pinnedBlock(t)
	s := "\n" + string(block)
	start := strings.Index(s, "\n== "+id+": ")
	if start < 0 {
		t.Fatalf("%s's fenced block has no %s report", experimentsFile, id)
	}
	sec := s[start+1:]
	if end := strings.Index(sec, "\n\n== "); end >= 0 {
		sec = sec[:end+1]
	} else {
		sec = strings.TrimSuffix(sec, "\n")
	}
	return sec, first + strings.Count(s[:start], "\n")
}

// checkPinnedReport renders one report at the two corners of cell
// parallelism x intra-run workers {1,8}^2 that neither `make experiments`
// (1, 1) nor the pinned full run (8, 8) exercises, and requires both to
// equal the report's section of the pin.
func checkPinnedReport(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("%s at mixed parallelism is not short", id)
	}
	want, line := pinnedReport(t, id)
	for _, c := range [][2]int{{1, 8}, {8, 1}} {
		got := renderAt(t, id, nil, c[0], c[1])
		if got != want {
			t.Errorf("%s (parallelism %d, workers %d, %d bytes) differs from its report in EXPERIMENTS.md (%d bytes); %s",
				id, c[0], c[1], len(got), len(want), firstDiff([]byte(got), []byte(want), line))
		}
	}
}

// The multi-programmed reports: fig11 interleaves two programs in one
// stream, and consol's sharded cells are where intra-run workers split
// and merge contexts.
func TestFig11Golden(t *testing.T)  { checkPinnedReport(t, "fig11") }
func TestConsolGolden(t *testing.T) { checkPinnedReport(t, "consol") }

// TestPinnedCacheVersion is the tripwire above: the pin's sha256 and
// CacheVersion must both still be the pair recorded beside them. It
// cannot see whether a cell's result changed under an unchanged key.
func TestPinnedCacheVersion(t *testing.T) {
	block, _ := pinnedBlock(t)
	sum := sha256.Sum256(block)
	if got := hex.EncodeToString(sum[:]); got != pinnedSHA256 {
		t.Errorf("EXPERIMENTS.md's fenced block has sha256 %s, pinned %s: if a cell's result "+
			"changed for an unchanged key, bump CacheVersion and both pinned constants; if "+
			"only the rendering changed, update pinnedSHA256 alone and say so in CHANGES.md",
			got, pinnedSHA256)
	}
	if CacheVersion != pinnedCacheVersion {
		t.Errorf("CacheVersion is %s but the pin was made under %s: re-pin with "+
			"`make experiments` and update pinnedCacheVersion and pinnedSHA256",
			CacheVersion, pinnedCacheVersion)
	}
}
