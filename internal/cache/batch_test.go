package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// batchCase is one randomized access stream replayed two ways: through
// AccessBatchHits on one cache and through a scalar Access loop on a
// second, identically configured cache. The two must agree on every hit
// bit, on the final Stats and on the final cache contents.
type batchCase struct {
	addrs  []mem.Addr
	writes []bool
	nows   []uint64
}

// genCase builds a stream that exercises the eviction edge cases: a small
// address footprint (high conflict rate), mixed loads/stores, and a
// non-monotonic external clock (now occasionally jumps back, covering the
// DeadTime clamp).
func genCase(rng *rand.Rand, n int, footprint int) batchCase {
	bc := batchCase{
		addrs:  make([]mem.Addr, n),
		writes: make([]bool, n),
		nows:   make([]uint64, n),
	}
	now := uint64(1000)
	for i := 0; i < n; i++ {
		bc.addrs[i] = mem.Addr(rng.Intn(footprint))
		bc.writes[i] = rng.Intn(3) == 0
		if rng.Intn(16) == 0 {
			now -= uint64(rng.Intn(50)) // clock skew: DeadTime clamp path
		} else {
			now += uint64(rng.Intn(20))
		}
		bc.nows[i] = now
	}
	return bc
}

// interleaveOps applies the same prefetch-insert / invalidate sequence to
// both caches between batches, so the equivalence also covers streams where
// demand accesses displace prefetched lines and fill freshly invalidated
// ways.
func interleaveOps(rng *rand.Rand, a, b *Cache, footprint int, now uint64) {
	for k := rng.Intn(4); k > 0; k-- {
		addr := mem.Addr(rng.Intn(footprint))
		victim := mem.Addr(rng.Intn(footprint))
		switch rng.Intn(3) {
		case 0:
			a.InsertPrefetch(addr, victim, true, now)
			b.InsertPrefetch(addr, victim, true, now)
		case 1:
			a.InsertPrefetch(addr, 0, false, now)
			b.InsertPrefetch(addr, 0, false, now)
		default:
			a.invalidate(addr, now)
			b.invalidate(addr, now)
		}
	}
}

func checkEquivalence(t *testing.T, cfg Config, bc batchCase, seed int64) {
	t.Helper()
	batched := MustNew(cfg)
	scalar := MustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	hits := make([]bool, len(bc.addrs))
	for pos := 0; pos < len(bc.addrs); {
		n := 1 + rng.Intn(97) // ragged batch boundaries
		if pos+n > len(bc.addrs) {
			n = len(bc.addrs) - pos
		}
		batched.AccessBatchHits(bc.addrs[pos:pos+n], bc.writes[pos:pos+n], bc.nows[pos:pos+n], hits[pos:pos+n])
		for i := pos; i < pos+n; i++ {
			if want := scalar.Access(bc.addrs[i], bc.writes[i], bc.nows[i]); hits[i] != want.Hit {
				t.Fatalf("cfg %+v: access %d (%#x): batch hit %v, scalar %+v", cfg, i, bc.addrs[i], hits[i], want)
			}
		}
		pos += n
		interleaveOps(rng, batched, scalar, 1<<12, bc.nows[pos-1])
	}
	checkSameState(t, cfg, batched, scalar, bc)
}

// checkSameState compares two caches after equivalent histories: their
// Stats and valid-line counts, then the full results (eviction records
// included) of replaying bc through both caches' Access, which match only
// if the tag stores, flags, replacement order and touch clocks match too.
func checkSameState(t *testing.T, cfg Config, batched, scalar *Cache, bc batchCase) {
	t.Helper()
	if bs, ss := batched.Stats(), scalar.Stats(); bs != ss {
		t.Fatalf("cfg %+v: stats diverge: batch %+v, scalar %+v", cfg, bs, ss)
	}
	if bv, sv := batched.ValidLines(), scalar.ValidLines(); bv != sv {
		t.Fatalf("cfg %+v: valid lines diverge: batch %d, scalar %d", cfg, bv, sv)
	}
	for i := range bc.addrs {
		got := batched.Access(bc.addrs[i], bc.writes[i], bc.nows[i])
		want := scalar.Access(bc.addrs[i], bc.writes[i], bc.nows[i])
		if got != want {
			t.Fatalf("cfg %+v: replay access %d (%#x): batch-fed cache %+v, scalar-fed %+v", cfg, i, bc.addrs[i], got, want)
		}
	}
}

// TestAccessBatchHitsScalarEquivalence pins the batch contract:
// AccessBatchHits must produce the hit bits, Stats and cache contents of
// a scalar Access loop over the same stream, for every policy and
// associativity, including runs with prefetch inserts and invalidations
// interleaved at batch boundaries.
func TestAccessBatchHitsScalarEquivalence(t *testing.T) {
	configs := []Config{
		{Name: "dm", Size: 1024, BlockSize: 64, Assoc: 1},
		{Name: "2w", Size: 2048, BlockSize: 64, Assoc: 2},
		{Name: "4w-fifo", Size: 4096, BlockSize: 64, Assoc: 4, Policy: FIFO},
		{Name: "2w-rand", Size: 2048, BlockSize: 64, Assoc: 2, Policy: Random},
		{Name: "8w", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 8},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bc := genCase(rng, 4000, 1<<12)
			checkEquivalence(t, cfg, bc, seed+100)
		}
	}
}

// TestColdFillStats pins the eviction accounting on cold fills: filling an
// empty cache to capacity displaces nothing, so Evictions (and its dirty /
// prefetch-unused breakdowns) must stay zero and every result must carry a
// zero EvictInfo. The first conflicting access then counts exactly one
// eviction.
func TestColdFillStats(t *testing.T) {
	cfg := Config{Name: "cold", Size: 2048, BlockSize: 64, Assoc: 2}
	c := MustNew(cfg)
	lines := cfg.Size / cfg.BlockSize
	for i := 0; i < lines; i++ {
		r := c.Access(mem.Addr(i*cfg.BlockSize), i%2 == 0, uint64(i))
		if r.Hit {
			t.Fatalf("cold access %d hit", i)
		}
		if r.Evicted != (EvictInfo{}) {
			t.Fatalf("cold fill %d reported an eviction: %+v", i, r.Evicted)
		}
	}
	st := c.Stats()
	want := Stats{Accesses: uint64(lines), Misses: uint64(lines),
		ReadMisses: uint64(lines / 2), WriteMisses: uint64(lines - lines/2)}
	if st != want {
		t.Fatalf("cold-fill stats = %+v, want %+v (Evictions must be 0)", st, want)
	}
	if c.ValidLines() != lines {
		t.Fatalf("valid lines = %d, want %d", c.ValidLines(), lines)
	}
	// One more distinct block: a genuine eviction, counted once.
	r := c.Access(mem.Addr(lines*cfg.BlockSize), false, uint64(lines))
	if !r.Evicted.Valid {
		t.Fatal("capacity conflict must evict")
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d after first conflict, want 1", got)
	}
}

// FuzzAccessBatchHitsEquivalence drives arbitrary byte strings as access
// streams through the batch and scalar paths.
func FuzzAccessBatchHitsEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x40, 0xFF, 0x00, 0x80}, uint8(1))
	f.Add([]byte{0xAA, 0xBB, 0xAA, 0xBB, 0xCC}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, assocSel uint8) {
		if len(data) == 0 {
			return
		}
		assoc := 1 << (assocSel % 3) // 1, 2, 4
		cfg := Config{Name: "fuzz", Size: 64 * 8 * assoc, BlockSize: 64, Assoc: assoc,
			Policy: PolicyKind(assocSel % 3)}
		batched, scalar := MustNew(cfg), MustNew(cfg)
		bc := batchCase{
			addrs:  make([]mem.Addr, len(data)),
			writes: make([]bool, len(data)),
			nows:   make([]uint64, len(data)),
		}
		for i, bb := range data {
			bc.addrs[i] = mem.Addr(bb) << 4 // span several sets and tags
			bc.writes[i] = bb&1 != 0
			bc.nows[i] = uint64(i * int(bb%5))
		}
		hits := make([]bool, len(data))
		batched.AccessBatchHits(bc.addrs, bc.writes, bc.nows, hits)
		for i := range bc.addrs {
			if want := scalar.Access(bc.addrs[i], bc.writes[i], bc.nows[i]); hits[i] != want.Hit {
				t.Fatalf("access %d: batch hit %v, scalar %+v", i, hits[i], want)
			}
		}
		checkSameState(t, cfg, batched, scalar, bc)
	})
}
