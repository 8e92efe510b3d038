package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestAllPresetsPresent(t *testing.T) {
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	if len(names) != 28 {
		t.Fatalf("presets = %d want 28 (%v)", len(names), names)
	}
	want := []string{
		"ammp", "applu", "apsi", "art", "bh", "bzip2", "crafty", "em3d",
		"eon", "equake", "facerec", "fma3d", "galgel", "gap", "gcc", "gzip",
		"lucas", "mcf", "mesa", "mgrid", "parser", "perlbmk", "sixtrack",
		"swim", "treeadd", "twolf", "vortex", "wupwise",
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("preset %d = %q want %q", i, names[i], w)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok || p.Name != "mcf" || !p.DepHeavy {
		t.Errorf("ByName(mcf) = %+v, %v", p, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("unknown preset must not resolve")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []Scale{Small, Medium, Large} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale must error")
	}
}

func TestPresetsDeterministic(t *testing.T) {
	for _, p := range Presets() {
		a := trace.Collect(trace.Limit(p.Source(Small, 1), 5000), 0)
		b := trace.Collect(trace.Limit(p.Source(Small, 1), 5000), 0)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", p.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ref %d differs between identical builds", p.Name, i)
			}
		}
	}
}

func TestPresetsProduceEnoughRefs(t *testing.T) {
	for _, p := range Presets() {
		n := trace.Count(trace.Limit(p.Source(Small, 1), 200_000))
		if n < 100_000 {
			t.Errorf("%s produced only %d refs at Small scale", p.Name, n)
		}
	}
}

// missProfile runs a preset's stream through the paper's L1D and L2 and
// returns the L1 and (local) L2 miss rates.
func missProfile(t *testing.T, p Preset, scale Scale) (l1Rate, l2Rate float64) {
	t.Helper()
	l1 := cache.MustNew(cache.Config{Name: "L1D", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 2})
	l2 := cache.MustNew(cache.Config{Name: "L2", Size: mem.MiB, BlockSize: 64, Assoc: 8})
	src := trace.NewPuller(p.Source(scale, 1))
	var now uint64
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		now += uint64(r.Gap) + 1
		res := l1.Access(r.Addr, r.Kind == trace.Store, now)
		if !res.Hit {
			l2.Access(r.Addr, false, now)
		}
	}
	return l1.Stats().MissRate(), l2.Stats().MissRate()
}

// Miss-rate bands per preset at Small scale. The paper's Table 2 values are
// targets, not oracles — our synthetic stand-ins aim for the same *class*:
// negligible (<2%), low (2-10%), mid (10-30%), high (30-60%), extreme (>55%).
func TestPresetMissRateBands(t *testing.T) {
	if testing.Short() {
		t.Skip("miss-rate characterization is not short")
	}
	bands := map[string][2]float64{
		"ammp":     {0.05, 0.30},
		"applu":    {0.20, 0.50},
		"apsi":     {0.02, 0.16},
		"art":      {0.45, 0.90},
		"bh":       {0.03, 0.15},
		"bzip2":    {0.01, 0.10},
		"crafty":   {0.00, 0.06},
		"em3d":     {0.40, 0.90},
		"eon":      {0.00, 0.04},
		"equake":   {0.15, 0.40},
		"facerec":  {0.12, 0.40},
		"fma3d":    {0.05, 0.25},
		"galgel":   {0.10, 0.35},
		"gap":      {0.01, 0.09},
		"gcc":      {0.20, 0.55},
		"gzip":     {0.02, 0.12},
		"lucas":    {0.30, 0.65},
		"mcf":      {0.40, 0.85},
		"mesa":     {0.00, 0.10},
		"mgrid":    {0.10, 0.35},
		"parser":   {0.02, 0.17},
		"perlbmk":  {0.01, 0.10},
		"sixtrack": {0.00, 0.05},
		"swim":     {0.30, 0.65},
		"treeadd":  {0.02, 0.15},
		"twolf":    {0.08, 0.32},
		"vortex":   {0.01, 0.14},
		"wupwise":  {0.05, 0.25},
	}
	for _, p := range Presets() {
		band, ok := bands[p.Name]
		if !ok {
			t.Errorf("no band for %s", p.Name)
			continue
		}
		l1, l2 := missProfile(t, p, Small)
		t.Logf("%-9s L1 miss %5.1f%%  L2 miss %5.1f%%", p.Name, l1*100, l2*100)
		if l1 < band[0] || l1 > band[1] {
			t.Errorf("%s: L1 miss rate %.3f outside band [%.2f, %.2f]", p.Name, l1, band[0], band[1])
		}
	}
}

// Large-footprint benchmarks must actually exceed the L2 (their L1 misses
// mostly miss in L2), and L2-resident ones must mostly hit there: this is
// what separates the "LT-cords wins" class from the "bigger L2 wins" class.
func TestPresetL2Classes(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is not short")
	}
	beyondL2 := []string{"art", "em3d", "swim", "lucas", "applu", "bh", "treeadd", "wupwise", "mcf"}
	// Only gcc generates enough L2 traffic for a meaningful local L2 miss
	// rate; tiny-footprint apps see a handful of compulsory L2 misses.
	insideL2 := []string{"gcc"}
	for _, name := range beyondL2 {
		p, _ := ByName(name)
		_, l2 := missProfile(t, p, Small)
		if l2 < 0.4 {
			t.Errorf("%s: expected mostly L2 misses (footprint beyond L2), got local L2 miss rate %.2f", name, l2)
		}
	}
	for _, name := range insideL2 {
		p, _ := ByName(name)
		_, l2 := missProfile(t, p, Small)
		if l2 > 0.45 {
			t.Errorf("%s: expected L2-resident working set, got local L2 miss rate %.2f", name, l2)
		}
	}
}
