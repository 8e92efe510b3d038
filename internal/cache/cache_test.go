package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// tiny returns a 2-set, 2-way cache with 64-byte blocks (256 bytes total).
func tiny(policy PolicyKind) *Cache {
	return MustNew(Config{Name: "t", Size: 256, BlockSize: 64, Assoc: 2, Policy: policy})
}

// paperL1D returns the paper's L1D configuration.
func paperL1D() *Cache {
	return MustNew(Config{Name: "L1D", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 2, HitLatency: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Size: 0, BlockSize: 64, Assoc: 2},
		{Size: 256, BlockSize: 48, Assoc: 2},
		{Size: 300, BlockSize: 64, Assoc: 2},
		{Size: 64 * 64 * 3, BlockSize: 64, Assoc: 1}, // 192 sets: not a power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, cfg)
		}
	}
	good := Config{Name: "L1D", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("paper L1D config rejected: %v", err)
	}
	if good.Sets() != 512 {
		t.Errorf("L1D sets = %d want 512", good.Sets())
	}
}

func TestNewRejectsUnknownPolicy(t *testing.T) {
	_, err := New(Config{Name: "x", Size: 256, BlockSize: 64, Assoc: 2, Policy: PolicyKind(9)})
	if err == nil {
		t.Error("want error for unknown policy")
	}
}

func TestHitMissBasics(t *testing.T) {
	c := tiny(LRU)
	r := c.Access(0x0, false, 0)
	if r.Hit {
		t.Error("cold access must miss")
	}
	r = c.Access(0x10, false, 1) // same block as 0x0
	if !r.Hit {
		t.Error("same-block access must hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.ReadMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(LRU)
	// Set 0 holds blocks whose index bits (bit 6) are 0: 0x000, 0x080, 0x100.
	c.Access(0x000, false, 0)
	c.Access(0x080, false, 1)
	c.Access(0x000, false, 2) // make 0x080 the LRU
	r := c.Access(0x100, false, 3)
	if r.Hit {
		t.Fatal("conflict access must miss")
	}
	if !r.Evicted.Valid || r.Evicted.Addr != 0x080 {
		t.Errorf("evicted %+v want block 0x080", r.Evicted)
	}
	if !c.Probe(0x000) || c.Probe(0x080) || !c.Probe(0x100) {
		t.Error("cache contents wrong after LRU eviction")
	}
}

func TestFIFOEviction(t *testing.T) {
	c := tiny(FIFO)
	c.Access(0x000, false, 0)
	c.Access(0x080, false, 1)
	c.Access(0x000, false, 2) // touch does NOT refresh FIFO order
	r := c.Access(0x100, false, 3)
	if !r.Evicted.Valid || r.Evicted.Addr != 0x000 {
		t.Errorf("FIFO evicted %+v want block 0x000", r.Evicted)
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() []mem.Addr {
		c := tiny(Random)
		var evs []mem.Addr
		for i := 0; i < 64; i++ {
			a := mem.Addr(i%5) * 0x80 // five conflicting blocks in set 0
			if r := c.Access(a, false, uint64(i)); r.Evicted.Valid {
				evs = append(evs, r.Evicted.Addr)
			}
		}
		return evs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("expected evictions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy is not deterministic across identical runs")
		}
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, true, 0) // store: dirty
	c.Access(0x080, false, 1)
	r := c.Access(0x100, false, 2) // evicts 0x000 (LRU)
	if !r.Evicted.Valid || !r.Evicted.Dirty {
		t.Errorf("evicted = %+v want dirty", r.Evicted)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.Stats().DirtyEvictions)
	}
	// Store hit marks an existing clean line dirty.
	c2 := tiny(LRU)
	c2.Access(0x000, false, 0)
	c2.Access(0x000, true, 1)
	c2.Access(0x080, false, 2)
	r = c2.Access(0x100, false, 3)
	if !r.Evicted.Dirty {
		t.Error("store hit did not mark line dirty")
	}
}

func TestDeadTime(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, false, 100)
	c.Access(0x000, false, 150) // last touch at 150
	c.Access(0x080, false, 200)
	r := c.Access(0x100, false, 450) // evicts 0x000
	if r.Evicted.Addr != 0x000 {
		t.Fatalf("evicted %#x", r.Evicted.Addr)
	}
	if r.Evicted.DeadTime != 300 || r.Evicted.LastTouch != 150 {
		t.Errorf("dead time = %d lastTouch = %d want 300,150", r.Evicted.DeadTime, r.Evicted.LastTouch)
	}
}

func TestPrefetchInsertVictim(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, false, 0)
	c.Access(0x080, false, 1) // 0x000 is now LRU... but we victimize 0x080
	ev, ok := c.InsertPrefetch(0x100, 0x080, true, 2)
	if !ok {
		t.Fatal("insert should happen")
	}
	if !ev.Valid || ev.Addr != 0x080 {
		t.Errorf("evicted %+v want explicit victim 0x080", ev)
	}
	if !c.Probe(0x000) || !c.Probe(0x100) {
		t.Error("contents wrong after victim insert")
	}
	if r := c.Access(0x100, false, 3); !r.PrefetchHit {
		t.Error("inserted line must be marked prefetched")
	}
}

func TestPrefetchInsertVictimAbsentFallsBack(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, false, 0)
	c.Access(0x080, false, 1)
	// Victim 0x180 is not in the set: policy (LRU = 0x000) victim is used.
	ev, ok := c.InsertPrefetch(0x100, 0x180, true, 2)
	if !ok || ev.Addr != 0x000 {
		t.Errorf("evicted %+v want LRU fallback 0x000", ev)
	}
}

func TestPrefetchDuplicate(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, false, 0)
	if _, ok := c.InsertPrefetch(0x000, 0, false, 1); ok {
		t.Error("duplicate prefetch must be a no-op")
	}
	if c.Stats().PrefetchDupes != 1 {
		t.Errorf("PrefetchDupes = %d", c.Stats().PrefetchDupes)
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	c := tiny(LRU)
	c.InsertPrefetch(0x100, 0, false, 0)
	r := c.Access(0x100, false, 1)
	if !r.Hit || !r.PrefetchHit {
		t.Errorf("first touch of prefetched line: %+v", r)
	}
	r = c.Access(0x100, false, 2)
	if r.PrefetchHit {
		t.Error("second touch must not count as prefetch hit")
	}
	if st := c.Stats(); st.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", st.PrefetchHits)
	}
}

func TestPrefetchUnusedEviction(t *testing.T) {
	c := tiny(LRU)
	c.InsertPrefetch(0x000, 0, false, 0)
	c.Access(0x080, false, 1)
	c.Access(0x100, false, 2) // evicts the untouched prefetch (LRU)
	if st := c.Stats(); st.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d; stats %+v", st.PrefetchUnused, st)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := tiny(LRU)
	c.Access(0x000, true, 5)
	ev, ok := c.invalidate(0x000, 9)
	if !ok || !ev.Dirty || ev.DeadTime != 4 {
		t.Errorf("invalidate = %+v,%v", ev, ok)
	}
	if _, ok := c.invalidate(0x000, 9); ok {
		t.Error("second invalidate must miss")
	}
	c.Access(0x080, false, 1)
	c.Flush()
	if c.ValidLines() != 0 {
		t.Error("flush left valid lines")
	}
	if c.Stats().Accesses == 0 {
		t.Error("flush must keep stats")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate must be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

// Property: the most recently accessed block is always present, valid lines
// never exceed capacity, and hits+misses == accesses.
func TestCacheInvariantsQuick(t *testing.T) {
	cfg := Config{Name: "q", Size: 2048, BlockSize: 64, Assoc: 4}
	f := func(seed int64, n uint16) bool {
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			a := mem.Addr(rng.Intn(1 << 14))
			c.Access(a, rng.Intn(4) == 0, uint64(i))
			if !c.Probe(a) {
				return false
			}
			if c.ValidLines() > cfg.Size/cfg.BlockSize {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a direct-mapped cache behaves exactly like a map from set index
// to the last block accessed in that set.
func TestDirectMappedModelQuick(t *testing.T) {
	cfg := Config{Name: "dm", Size: 1024, BlockSize: 64, Assoc: 1}
	f := func(seed int64, n uint16) bool {
		c := MustNew(cfg)
		model := map[int]mem.Addr{} // set -> block addr
		geo := c.Geometry()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			a := mem.Addr(rng.Intn(1 << 13))
			blk := geo.BlockAddr(a)
			idx := geo.Index(a)
			want, present := model[idx]
			wantHit := present && want == blk
			r := c.Access(a, false, uint64(i))
			if r.Hit != wantHit {
				return false
			}
			if !wantHit && present && (!r.Evicted.Valid || r.Evicted.Addr != want) {
				return false
			}
			model[idx] = blk
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: an LRU cache of associativity A never misses on any of the A
// most recently used distinct blocks of a set.
func TestLRURecencyInvariant(t *testing.T) {
	c := MustNew(Config{Name: "l", Size: 64 * 4 * 8, BlockSize: 64, Assoc: 4})
	rng := rand.New(rand.NewSource(7))
	recent := map[int][]mem.Addr{} // set -> MRU-ordered blocks, max 4
	geo := c.Geometry()
	for i := 0; i < 20000; i++ {
		a := mem.Addr(rng.Intn(1 << 13))
		blk := geo.BlockAddr(a)
		idx := geo.Index(a)
		rs := recent[idx]
		inRecent := false
		for _, b := range rs {
			if b == blk {
				inRecent = true
				break
			}
		}
		r := c.Access(a, false, uint64(i))
		if inRecent && !r.Hit {
			t.Fatalf("iter %d: block %#x among %d MRU of set %d but missed", i, blk, len(rs), idx)
		}
		// Update model: move-to-front, cap at assoc.
		nrs := []mem.Addr{blk}
		for _, b := range rs {
			if b != blk {
				nrs = append(nrs, b)
			}
		}
		if len(nrs) > 4 {
			nrs = nrs[:4]
		}
		recent[idx] = nrs
	}
}

func TestPaperL1DGeometry(t *testing.T) {
	c := paperL1D()
	g := c.Geometry()
	if g.Sets() != 512 || g.BlockBits() != 6 || g.SetBits() != 9 {
		t.Errorf("L1D geometry = %d sets, %d block bits, %d set bits", g.Sets(), g.BlockBits(), g.SetBits())
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := paperL1D()
	c.Access(0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, uint64(i))
	}
}

func BenchmarkAccessMissStream(b *testing.B) {
	c := paperL1D()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i)*64, false, uint64(i))
	}
}
