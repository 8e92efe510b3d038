package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cachedir"
	"repro/internal/runner"
	"repro/internal/workload"
)

// renderPass runs every id against one shared scheduler wired to the
// persistent cache at root (the cmd/ltexp -exp all arrangement) and
// returns the rendered report bytes per id plus the scheduler stats.
func renderPass(t *testing.T, root string, ids, benches []string) (map[string]string, runner.Stats, cachedir.Counters) {
	t.Helper()
	dir, err := OpenCache(root, cachedir.ReadWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := runner.New(4)
	s.SetStore(dir)
	o := Options{Scale: workload.Small, Benchmarks: benches, Runner: s, Cache: dir}
	out := map[string]string{}
	for _, id := range ids {
		rep, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		rep.Render(&sb)
		out[id] = sb.String()
	}
	return out, s.Stats(), dir.Counters()
}

// TestWarmCacheByteIdentical asserts the tentpole guarantee end to end:
// a second process (fresh scheduler, fresh cachedir handle, same disk
// root) re-renders every experiment byte-identically while executing
// zero simulations — every cell revives from the persistent tier, every
// trace mmaps back in.
func TestWarmCacheByteIdentical(t *testing.T) {
	ids := IDs()
	benches := []string{"swim", "mcf"}
	if testing.Short() {
		ids = []string{"fig2", "fig6left", "fig8", "fig11", "consol"}
		benches = []string{"swim"}
	}
	root := t.TempDir()

	cold, coldStats, coldC := renderPass(t, root, ids, benches)
	if coldStats.Executed == 0 {
		t.Fatal("cold pass executed nothing")
	}
	if coldStats.Persisted == 0 || coldC.Puts == 0 || coldC.TracePuts == 0 {
		t.Fatalf("cold pass persisted nothing: stats=%+v counters=%+v", coldStats, coldC)
	}

	warm, warmStats, warmC := renderPass(t, root, ids, benches)
	for _, id := range ids {
		if cs, ws := sum(cold[id]), sum(warm[id]); cs != ws {
			t.Errorf("%s: warm report sha256 %s differs from cold %s\n--- cold ---\n%s\n--- warm ---\n%s",
				id, ws, cs, cold[id], warm[id])
		}
	}
	if warmStats.Executed != 0 {
		t.Errorf("warm pass executed %d simulations, want 0 (stats %+v)", warmStats.Executed, warmStats)
	}
	if warmStats.DiskHits == 0 || warmC.Hits == 0 {
		t.Errorf("warm pass did not hit the persistent tier: stats=%+v counters=%+v", warmStats, warmC)
	}
	if warmC.Puts != 0 || warmC.TracePuts != 0 {
		t.Errorf("warm pass re-persisted entries: %+v", warmC)
	}
}

// TestPoisonedCacheRecovers asserts the repair path end to end: with
// arbitrary result entries corrupted on disk, a warm run silently
// recomputes the poisoned cells, repairs the entries, and still renders
// byte-identically.
func TestPoisonedCacheRecovers(t *testing.T) {
	ids := []string{"fig8"}
	benches := []string{"swim"}
	root := t.TempDir()

	cold, _, _ := renderPass(t, root, ids, benches)

	// Corrupt every third result entry: truncate one, bit-flip the next.
	var i int
	filepath.WalkDir(filepath.Join(root, "results"), func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i++; i % 3 {
		case 0:
			err = os.WriteFile(path, raw[:len(raw)/2], 0o666)
		case 1:
			raw[len(raw)-1] ^= 0x55
			err = os.WriteFile(path, raw, 0o666)
		}
		if err != nil {
			t.Fatal(err)
		}
		return nil
	})
	if i == 0 {
		t.Fatal("no result entries written by the cold pass")
	}

	warm, warmStats, warmC := renderPass(t, root, ids, benches)
	if warm[ids[0]] != cold[ids[0]] {
		t.Errorf("report changed after cache poisoning:\n--- cold ---\n%s\n--- warm ---\n%s", cold[ids[0]], warm[ids[0]])
	}
	if warmStats.Executed == 0 {
		t.Error("poisoned entries were served instead of recomputed")
	}
	if warmC.BadEntries == 0 {
		t.Errorf("no corruption detected: %+v", warmC)
	}

	// Third pass: the warm run repaired the poisoned entries, so now
	// everything revives.
	_, fixedStats, _ := renderPass(t, root, ids, benches)
	if fixedStats.Executed != 0 {
		t.Errorf("repair pass still executed %d simulations", fixedStats.Executed)
	}
}

// TestReadOnlyCacheWarm asserts -cache=ro semantics: a read-only handle
// over a populated cache serves everything without writing.
func TestReadOnlyCacheWarm(t *testing.T) {
	root := t.TempDir()
	cold, _, _ := renderPass(t, root, []string{"fig9"}, []string{"swim"})

	dir, err := OpenCache(root, cachedir.ReadOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := runner.New(2)
	s.SetStore(dir)
	rep, err := Run("fig9", Options{Scale: workload.Small, Benchmarks: []string{"swim"}, Runner: s, Cache: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if sb.String() != cold["fig9"] {
		t.Error("read-only warm report differs from cold")
	}
	if st := s.Stats(); st.Executed != 0 {
		t.Errorf("read-only warm run executed %d simulations", st.Executed)
	}
}

func sum(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
