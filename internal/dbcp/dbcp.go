// Package dbcp implements the Dead-Block Correlating Prefetcher of Lai &
// Falsafi (ISCA 2001), the baseline LT-cords improves on (paper Section 2).
//
// DBCP keeps its signature-to-replacement correlation table entirely on
// chip. Two variants are provided: Unlimited (the "oracle" with unbounded
// table, used as the coverage upper bound in Figure 8) and a finite
// set-associative table whose capacity sweep reproduces Figure 4. Signature
// construction is shared with LT-cords via internal/history; prediction and
// recording follow the same episode protocol (record at evictions, predict
// at matching accesses, prefetch over the predicted-dead block).
package dbcp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/history"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params configures DBCP.
type Params struct {
	// TableBytes is the on-chip correlation table capacity; 0 means
	// unlimited (the oracle configuration).
	TableBytes int
	// EntryBytes is the storage cost per correlation entry (5 in the
	// paper: hash tag, confidence, prediction address tag).
	EntryBytes int
	// Assoc is the table associativity for the finite variant.
	Assoc int
	// ConfInit, ConfMax, ConfThresh follow the 2-bit counter scheme.
	ConfInit, ConfMax, ConfThresh uint8
}

// DefaultParams returns the paper's realistic configuration: a 2MB
// correlation table ("DBCP is implemented with a 2MB on-chip correlation
// table as in [12]").
func DefaultParams() Params {
	return Params{TableBytes: 2 * mem.MiB, EntryBytes: 5, Assoc: 8, ConfInit: 2, ConfMax: 3, ConfThresh: 2}
}

// UnlimitedParams returns the oracle configuration.
func UnlimitedParams() Params {
	p := DefaultParams()
	p.TableBytes = 0
	return p
}

// ScaledParams returns the "realistic DBCP" sized for this repository's
// synthetic workloads. The paper pits a 2MB table against 10-160MB SPEC
// footprints (the table holds a few percent of the needed signatures); our
// footprints are roughly an order of magnitude smaller, so the
// equivalently-starved table is 512KB — which roughly matches LT-cords'
// ~214KB on-chip budget, making the comparison storage-fair.
func ScaledParams() Params {
	p := DefaultParams()
	p.TableBytes = 512 * mem.KiB
	return p
}

// lanes is the correlation-entry storage both table variants share,
// structure-of-arrays like the cache tag store and LT-cords' signature
// cache (DESIGN.md §9): the probe loop touches only the sig lane (4
// bytes/entry) plus the packed meta byte, where the previous
// array-of-structs layout dragged the lru and repl lanes through the
// cache on every probe — at Figure 4's table sizes (up to millions of
// entries) that tripled the probe working set and dominated the
// coverage profile. The lru lane is read only on victim scans, the repl
// lane only on a signature match.
type lanes struct {
	sigs []history.Signature
	meta []uint8 // bit 7 valid, low bits the 2-bit confidence
	lru  []uint64
	repl []mem.Addr
}

const laneValid = 0x80

func makeLanes(n int) lanes {
	return lanes{
		sigs: make([]history.Signature, n),
		meta: make([]uint8, n),
		lru:  make([]uint64, n),
		repl: make([]mem.Addr, n),
	}
}

// extend appends n empty entries to every lane and returns the first
// one's index. A full lane is copied into one of twice its length, but
// never longer than limit, the table's nominal capacity, so a run that
// touches every set ends with the lanes an up-front table would have.
func (l *lanes) extend(n, limit int) int {
	base := len(l.sigs)
	l.sigs = extendLane(l.sigs, n, limit)
	l.meta = extendLane(l.meta, n, limit)
	l.lru = extendLane(l.lru, n, limit)
	l.repl = extendLane(l.repl, n, limit)
	return base
}

func extendLane[T any](s []T, n, limit int) []T {
	if len(s)+n > cap(s) {
		t := make([]T, len(s), min(max(2*len(s), len(s)+n, 1024), limit))
		copy(t, s)
		s = t
	}
	return s[:len(s)+n] // lanes only grow, so the spare capacity is still zero
}

func (l *lanes) conf(i int) uint8 { return l.meta[i] &^ laneValid }

func (l *lanes) setConf(i int, c uint8) { l.meta[i] = laneValid | c }

// predMap maps predicted-victim block addresses to the signature that
// predicted them (the early-eviction feedback bookkeeping). It is an
// exact drop-in for the built-in map it replaces — same key→value
// mapping, same live count for the reset bound — as an open-addressing
// table with linear probing, the same idiom (including Knuth 6.4
// algorithm R deletion, so no tombstones accumulate) as core's
// predTable: the map assign per prediction showed in the coverage
// profile. Slots are twice the 64K reset bound, keeping the load factor
// at most ~0.5.
type predMap struct {
	keys  []mem.Addr
	vals  []history.Signature
	state []uint8 // 0 empty, 1 live
	n     int
}

const predMapSlots = 1 << 17

func newPredMap() *predMap {
	return &predMap{
		keys:  make([]mem.Addr, predMapSlots),
		vals:  make([]history.Signature, predMapSlots),
		state: make([]uint8, predMapSlots),
	}
}

func (t *predMap) home(block mem.Addr) uint32 {
	return uint32((uint64(block)*0x9E3779B97F4A7C15)>>32) & (predMapSlots - 1)
}

func (t *predMap) get(block mem.Addr) (history.Signature, bool) {
	i := t.home(block)
	for t.state[i] != 0 {
		if t.keys[i] == block {
			return t.vals[i], true
		}
		i = (i + 1) & (predMapSlots - 1)
	}
	return 0, false
}

func (t *predMap) put(block mem.Addr, sig history.Signature) {
	i := t.home(block)
	for t.state[i] != 0 {
		if t.keys[i] == block {
			t.vals[i] = sig
			return
		}
		i = (i + 1) & (predMapSlots - 1)
	}
	t.keys[i] = block
	t.vals[i] = sig
	t.state[i] = 1
	t.n++
}

func (t *predMap) del(block mem.Addr) {
	const mask = predMapSlots - 1
	i := t.home(block)
	for {
		if t.state[i] == 0 {
			return
		}
		if t.keys[i] == block {
			break
		}
		i = (i + 1) & mask
	}
	t.state[i] = 0
	t.n--
	// Re-settle the cluster following the hole: every entry between the
	// hole and the next empty slot moves back into the hole unless its
	// home position lies cyclically within (hole, entry].
	j := i
	for {
		j = (j + 1) & mask
		if t.state[j] == 0 {
			return
		}
		h := t.home(t.keys[j])
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			t.state[i] = 1
			t.state[j] = 0
			i = j
		}
	}
}

// reset empties the table (stale keys/vals behind cleared state bytes
// are unreachable).
func (t *predMap) reset() {
	clear(t.state)
	t.n = 0
}

// Stats counts DBCP events.
type Stats struct {
	Recorded    uint64
	TableHits   uint64
	Predictions uint64
	Evictions   uint64 // finite-table entry replacements
	// MirrorDivergences counts history-mirror installs whose victim was
	// absent from the mirror set (zero for a consistent driver).
	MirrorDivergences uint64
}

// Predictor is a DBCP instance. It implements sim.Prefetcher and
// sim.EarlyEvictionObserver.
type Predictor struct {
	p    Params
	geo  mem.Geometry
	hist *history.Table

	tab lanes

	// Unlimited variant: open addressing with linear probing, growing at
	// 3/4 load — the exact-map replacement idiom of core's predTable (the
	// general-purpose map's hashing and per-entry pointer chase dominated
	// the oracle cells' profile). The oracle table is footprint-
	// proportional by design; that is Figure 4's point.
	unlimited bool
	mask      uint32
	live      int

	// Finite variant: set-associative, LRU. A set's assoc ways are
	// appended to the lanes on the set's first insert, so a run allocates
	// only the sets it touches (Figure 4's 32MB table would be 88MB of
	// lanes up front). setBase[s] is 1 + the index of set s's first way,
	// 0 while s is untouched.
	setBase []uint32
	setMask uint32
	assoc   int

	clock uint64

	lastPred *predMap
	stats    Stats
}

var _ sim.Prefetcher = (*Predictor)(nil)
var _ sim.EarlyEvictionObserver = (*Predictor)(nil)
var _ sim.PrefetchFillObserver = (*Predictor)(nil)

// New builds a DBCP attached to an L1D with the given configuration.
func New(l1 cache.Config, p Params) (*Predictor, error) {
	if p.EntryBytes < 1 {
		return nil, fmt.Errorf("dbcp: EntryBytes must be positive")
	}
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	geo, err := mem.NewGeometry(l1.BlockSize, l1.Sets())
	if err != nil {
		return nil, err
	}
	pr := &Predictor{
		p:        p,
		geo:      geo,
		hist:     history.New(l1.Sets(), l1.Assoc),
		lastPred: newPredMap(),
	}
	if p.TableBytes == 0 {
		const initSlots = 1 << 16
		pr.unlimited = true
		pr.tab = makeLanes(initSlots)
		pr.mask = initSlots - 1
		return pr, nil
	}
	if p.Assoc < 1 {
		return nil, fmt.Errorf("dbcp: associativity must be positive")
	}
	entries := p.TableBytes / p.EntryBytes
	// Round sets down to a power of two.
	sets := 1
	for sets*2*p.Assoc <= entries {
		sets *= 2
	}
	pr.setBase = make([]uint32, sets)
	pr.setMask = uint32(sets - 1)
	pr.assoc = p.Assoc
	return pr, nil
}

// MustNew is New that panics on error.
func MustNew(l1 cache.Config, p Params) *Predictor {
	pr, err := New(l1, p)
	if err != nil {
		panic(err)
	}
	return pr
}

// Name implements sim.Prefetcher.
func (pr *Predictor) Name() string {
	if pr.p.TableBytes == 0 {
		return "dbcp-unlimited"
	}
	return fmt.Sprintf("dbcp-%dKB", pr.p.TableBytes/1024)
}

// Stats returns a copy of the event counters.
func (pr *Predictor) Stats() Stats {
	s := pr.stats
	s.MirrorDivergences = pr.hist.Divergences()
	return s
}

// Entries reports the table capacity in entries (0 = unlimited): every
// set's ways, touched or not.
func (pr *Predictor) Entries() int {
	if pr.unlimited {
		return 0
	}
	return len(pr.setBase) * pr.assoc
}

// home spreads the 32-bit signature with the golden-ratio multiplier,
// keeping the well-mixed upper product bits (as core's predTable does) —
// signatures are already hashes, but their raw low bits cluster.
func (pr *Predictor) home(sig history.Signature) uint32 {
	return uint32((uint64(sig)*0x9E3779B97F4A7C15)>>32) & pr.mask
}

// find returns the live entry index for sig, or -1. The index is valid
// until the next insert (unlimited-table growth rehashes), matching how
// the predictor mutates conf/lru immediately after lookup.
func (pr *Predictor) find(sig history.Signature) int {
	t := &pr.tab
	if pr.unlimited {
		i := pr.home(sig)
		for t.meta[i] != 0 {
			if t.sigs[i] == sig {
				return int(i)
			}
			i = (i + 1) & pr.mask
		}
		return -1
	}
	b := pr.setBase[uint32(sig)&pr.setMask]
	if b == 0 {
		return -1
	}
	base := int(b - 1)
	for i := base; i < base+pr.assoc; i++ {
		if t.meta[i] != 0 && t.sigs[i] == sig {
			return i
		}
	}
	return -1
}

// place writes a fresh entry at slot i.
func (pr *Predictor) place(i int, sig history.Signature, repl mem.Addr, conf uint8) {
	pr.tab.sigs[i] = sig
	pr.tab.setConf(i, conf)
	pr.tab.lru[i] = pr.tick()
	pr.tab.repl[i] = repl
}

// insertNew adds an entry for a signature find reported absent: open
// addressing for the unlimited table (grow at 3/4 load so probe chains
// stay short), LRU victim replacement within the set for the finite one.
func (pr *Predictor) insertNew(sig history.Signature, repl mem.Addr) {
	t := &pr.tab
	if pr.unlimited {
		if uint32(pr.live) >= pr.mask/4*3 {
			pr.grow()
		}
		i := pr.home(sig)
		for t.meta[i] != 0 {
			i = (i + 1) & pr.mask
		}
		pr.place(int(i), sig, repl, pr.p.ConfInit)
		pr.live++
		return
	}
	set := uint32(sig) & pr.setMask
	if pr.setBase[set] == 0 {
		pr.setBase[set] = uint32(t.extend(pr.assoc, len(pr.setBase)*pr.assoc)) + 1
	}
	base := int(pr.setBase[set] - 1)
	victim, oldest := base, uint64(1)<<63
	for i := base; i < base+pr.assoc; i++ {
		if t.meta[i] == 0 {
			victim = i
			break
		}
		if t.lru[i] < oldest {
			victim, oldest = i, t.lru[i]
		}
	}
	if t.meta[victim] != 0 {
		pr.stats.Evictions++
	}
	pr.place(victim, sig, repl, pr.p.ConfInit)
}

// grow doubles the unlimited table and rehashes the live entries.
func (pr *Predictor) grow() {
	old := pr.tab
	pr.tab = makeLanes(2 * len(old.sigs))
	pr.mask = uint32(len(pr.tab.sigs) - 1)
	for i := range old.sigs {
		if old.meta[i] == 0 {
			continue
		}
		j := pr.home(old.sigs[i])
		for pr.tab.meta[j] != 0 {
			j = (j + 1) & pr.mask
		}
		pr.tab.sigs[j] = old.sigs[i]
		pr.tab.meta[j] = old.meta[i]
		pr.tab.lru[j] = old.lru[i]
		pr.tab.repl[j] = old.repl[i]
	}
}

// upsert records (sig -> repl), updating confidence like the 2-bit scheme:
// match increments, mismatch decrements and replaces the target when the
// counter empties.
func (pr *Predictor) upsert(sig history.Signature, repl mem.Addr) {
	pr.stats.Recorded++
	if i := pr.find(sig); i >= 0 {
		t := &pr.tab
		if t.repl[i] == repl {
			if c := t.conf(i); c < pr.p.ConfMax {
				t.setConf(i, c+1)
			}
		} else if c := t.conf(i); c > 0 {
			t.setConf(i, c-1)
		} else {
			t.repl[i] = repl
			t.setConf(i, pr.p.ConfInit)
		}
		t.lru[i] = pr.tick()
		return
	}
	pr.insertNew(sig, repl)
}

func (pr *Predictor) tick() uint64 {
	pr.clock++
	return pr.clock
}

// OnAccess implements sim.Prefetcher: predictions are appended to the
// driver-owned preds buffer (never retained).
func (pr *Predictor) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []sim.Prediction) []sim.Prediction {
	set := pr.geo.Index(ref.Addr)
	curTag := pr.geo.Tag(ref.Addr)
	curBlock := pr.geo.BlockAddr(ref.Addr)

	var evTag mem.Addr
	hasEv := false
	if evicted != nil && evicted.Valid {
		evTag = pr.geo.Tag(evicted.Addr)
		hasEv = true
	}
	evictSig, evictOK, cur := pr.hist.Access(set, curTag, ref.PC, evTag, hasEv)
	if evictOK {
		pr.upsert(evictSig, curBlock)
	}

	if i := pr.find(cur); i >= 0 {
		pr.stats.TableHits++
		pr.tab.lru[i] = pr.tick()
		if pr.tab.conf(i) >= pr.p.ConfThresh && pr.tab.repl[i] != curBlock {
			preds = append(preds, sim.Prediction{Addr: pr.tab.repl[i], Victim: curBlock, UseVictim: true})
			pr.stats.Predictions++
			if pr.lastPred.n > 1<<16 {
				pr.lastPred.reset()
			}
			pr.lastPred.put(curBlock, cur)
		}
	}
	return preds
}

// OnPrefetchFill implements sim.PrefetchFillObserver: the prefetched block
// displaced the predicted-dead block; close that episode in the history
// mirror. The correlation entry is only refreshed (LRU), not confidence-
// boosted: matching a prediction against its own prefetched address would
// be circular evidence.
func (pr *Predictor) OnPrefetchFill(block mem.Addr, evicted *cache.EvictInfo) {
	set := pr.geo.Index(block)
	tag := pr.geo.Tag(block)
	var vTag mem.Addr
	hasV := false
	if evicted != nil && evicted.Valid {
		vTag = pr.geo.Tag(evicted.Addr)
		hasV = true
	}
	sig, ok := pr.hist.PrefetchFill(set, tag, vTag, hasV)
	if !ok {
		return
	}
	if i := pr.find(sig); i >= 0 {
		pr.tab.lru[i] = pr.tick()
		return
	}
	pr.upsert(sig, block)
}

// OnEarlyEviction implements sim.EarlyEvictionObserver: a prediction
// evicted a live block; the signature's confidence resets and must be
// re-earned through demand verification.
func (pr *Predictor) OnEarlyEviction(block mem.Addr) {
	sig, ok := pr.lastPred.get(block)
	if !ok {
		return
	}
	pr.lastPred.del(block)
	if i := pr.find(sig); i >= 0 {
		pr.tab.setConf(i, 0)
	}
}

// TableEntries returns the number of live entries (unlimited variant) or
// valid entries (finite variant); used by the storage experiments.
func (pr *Predictor) TableEntries() int {
	if pr.unlimited {
		return pr.live
	}
	n := 0
	for _, m := range pr.tab.meta {
		if m != 0 {
			n++
		}
	}
	return n
}

// StorageBytes reports the on-chip bytes a table of the current occupancy
// would need (the Figure 4 x-axis for the unlimited variant).
func (pr *Predictor) StorageBytes() int {
	return pr.TableEntries() * pr.p.EntryBytes
}
