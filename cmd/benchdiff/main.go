// Command benchdiff compares two `make bench` snapshots (go test -json
// benchmark output, the BENCH_core.json format) and fails when the new run
// regresses. CI runs it to hold the perf trajectory (DESIGN.md §7): on any
// benchmark present in the old snapshot,
//
//   - ns/op may not be worse than the allowed percentage;
//   - a zero-alloc benchmark (0 allocs/op in the old snapshot) must stay
//     at 0 allocs/op, and its B/op — the amortized setup bytes — may only
//     go down;
//   - the two steady-state benchmarks with a known residual-byte
//     budget instead have their B/op pinned to an absolute ceiling
//     (residualPins, plus a small jitter allowance): the bytes are the
//     predictor's lazily-populated sequence-store frames (DESIGN.md §7),
//     and the pin keeps that residual from ratcheting upward across PRs
//     even if a snapshot refresh would otherwise re-baseline it;
//   - an allocating benchmark (the whole-run wall-time entry) may not
//     grow its allocs/op or B/op beyond the same allowed percentage.
//
// Usage:
//
//	benchdiff -old BENCH_core.json -new BENCH_new.json [-max-regress 10]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// result is one parsed benchmark line.
type result struct {
	NsPerOp     float64
	BytesPerOp  int64 // -1 when the line carried no B/op column
	AllocsPerOp int64 // -1 when the line carried no allocs/op column
}

// event is the subset of the go test -json record benchdiff consumes.
type event struct {
	Action string
	Test   string
	Output string
}

// parseFile extracts benchmark results from a go test -json stream. A
// benchmark's measurement line carries the owning Test name and an Output
// like " 4643974\t  305.4 ns/op\t  8 B/op\t  0 allocs/op". With -count>1
// the same benchmark appears several times; the best (minimum) ns/op and
// B/op and the worst (maximum) allocs/op are kept — best-of-N damps
// scheduler and noisy-neighbor variance on shared runners without masking
// regressions (a real slowdown shifts the minimum too, and B/op noise is
// inversely proportional to the iteration count the scheduler allowed),
// while any single iteration that allocates still fails the zero-alloc
// gate.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action != "output" || ev.Test == "" || !strings.Contains(ev.Output, "ns/op") {
			continue
		}
		fields := strings.Fields(ev.Output)
		r := result{BytesPerOp: -1, AllocsPerOp: -1}
		for i := 1; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				if r.NsPerOp, err = strconv.ParseFloat(fields[i-1], 64); err != nil {
					return nil, fmt.Errorf("%s: %s: bad ns/op %q", path, ev.Test, fields[i-1])
				}
			case "B/op":
				if r.BytesPerOp, err = strconv.ParseInt(fields[i-1], 10, 64); err != nil {
					return nil, fmt.Errorf("%s: %s: bad B/op %q", path, ev.Test, fields[i-1])
				}
			case "allocs/op":
				if r.AllocsPerOp, err = strconv.ParseInt(fields[i-1], 10, 64); err != nil {
					return nil, fmt.Errorf("%s: %s: bad allocs/op %q", path, ev.Test, fields[i-1])
				}
			}
		}
		if r.NsPerOp <= 0 {
			continue
		}
		if prev, ok := out[ev.Test]; ok {
			if prev.NsPerOp < r.NsPerOp {
				r.NsPerOp = prev.NsPerOp
			}
			if r.BytesPerOp < 0 || (prev.BytesPerOp >= 0 && prev.BytesPerOp < r.BytesPerOp) {
				r.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp > r.AllocsPerOp {
				r.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[ev.Test] = r
	}
	return out, sc.Err()
}

func main() {
	os.Exit(run())
}

// residualPins are absolute B/op ceilings for the zero-alloc
// steady-state benchmarks, pinned to their measured residuals: the bytes
// are not loop churn but the LT-cords predictor lazily populating its
// modeled off-chip sequence store (per-frame fragment buffers allocated
// on first record into a frame), amortized over the iteration count —
// see DESIGN.md §7 for the accounting. Anchoring the exact values here
// means a snapshot refresh can never quietly re-baseline a larger
// residual; a pinned benchmark is exempt from the relative only-go-down
// rule (the absolute ceiling subsumes it and, unlike the snapshot
// comparison, cannot ratchet). The amortized figure shifts by a byte or
// two with the iteration count the benchmark scheduler picks, so the
// check allows residualSlack on top of the pin.
var residualPins = map[string]int64{
	"BenchmarkCoverage":    8,
	"BenchmarkTimingModel": 11,
}

// residualSlack absorbs b.N-dependent amortization jitter on the pinned
// residuals (fewer iterations on a slow run divide the same one-time
// state-population bytes by a smaller count).
const residualSlack = 2

// check applies the regression policy to one benchmark, returning the
// violations (empty = pass).
func check(name string, o, n result, maxRegress float64) []string {
	var fails []string
	if delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100; delta > maxRegress {
		fails = append(fails, fmt.Sprintf("ns/op +%.1f%%", delta))
	}
	if o.AllocsPerOp == 0 {
		// A pinned zero-alloc benchmark: stays zero-alloc, and its
		// amortized setup bytes may only go down — unless it carries an
		// absolute residual pin, which replaces the relative rule.
		if n.AllocsPerOp != 0 {
			fails = append(fails, fmt.Sprintf("allocs/op %d, want 0", n.AllocsPerOp))
		}
		if pin, ok := residualPins[name]; ok {
			if n.BytesPerOp > pin+residualSlack {
				fails = append(fails, fmt.Sprintf("B/op %d exceeds the pinned residual %d+%d (DESIGN.md §7)", n.BytesPerOp, pin, residualSlack))
			}
		} else if o.BytesPerOp >= 0 && n.BytesPerOp > o.BytesPerOp {
			fails = append(fails, fmt.Sprintf("B/op %d -> %d, pinned to only go down", o.BytesPerOp, n.BytesPerOp))
		}
		return fails
	}
	// An allocating benchmark: allocs and bytes track the same regression
	// budget as time.
	if o.AllocsPerOp > 0 {
		if delta := float64(n.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp) * 100; delta > maxRegress {
			fails = append(fails, fmt.Sprintf("allocs/op +%.1f%%", delta))
		}
	}
	if o.BytesPerOp > 0 {
		if delta := float64(n.BytesPerOp-o.BytesPerOp) / float64(o.BytesPerOp) * 100; delta > maxRegress {
			fails = append(fails, fmt.Sprintf("B/op +%.1f%%", delta))
		}
	}
	return fails
}

func run() int {
	oldPath := flag.String("old", "BENCH_core.json", "committed benchmark snapshot")
	newPath := flag.String("new", "", "freshly measured snapshot to check")
	maxRegress := flag.Float64("max-regress", 10, "allowed ns/op (and, for allocating benchmarks, B/op and allocs/op) regression in percent")
	showVersion := buildinfo.VersionFlag("benchdiff")
	flag.Parse()
	showVersion()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		return 2
	}
	oldRes, err := parseFile(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	newRes, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	if len(oldRes) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmarks in %s\n", *oldPath)
		return 2
	}
	failed := false
	for _, o := range sortedByName(oldRes) {
		n, ok := newRes[o.name]
		if !ok {
			fmt.Printf("FAIL %-24s missing from %s\n", o.name, *newPath)
			failed = true
			continue
		}
		fails := check(o.name, o.res, n, *maxRegress)
		status := "ok  "
		if len(fails) > 0 {
			status = "FAIL"
			failed = true
		}
		delta := (n.NsPerOp - o.res.NsPerOp) / o.res.NsPerOp * 100
		fmt.Printf("%s %-24s %12.2f -> %12.2f ns/op (%+6.1f%%)  %d B/op  %d allocs/op",
			status, o.name, o.res.NsPerOp, n.NsPerOp, delta, n.BytesPerOp, n.AllocsPerOp)
		if len(fails) > 0 {
			fmt.Printf("  [%s]", strings.Join(fails, "; "))
		}
		fmt.Println()
	}
	if failed {
		fmt.Printf("benchdiff: regression beyond %.0f%% ns/op, allocs/op gate, or B/op growth\n", *maxRegress)
		return 1
	}
	return 0
}

// namedResult pairs a benchmark with its result for deterministic output.
type namedResult struct {
	name string
	res  result
}

// sortedByName yields results in lexical benchmark order.
func sortedByName(m map[string]result) []namedResult {
	out := make([]namedResult, 0, len(m))
	for name, r := range m {
		out = append(out, namedResult{name, r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
