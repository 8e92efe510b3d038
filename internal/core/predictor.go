package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/history"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats counts LT-cords events and off-chip traffic.
type Stats struct {
	// Recorded is the number of signatures written to sequence storage.
	Recorded uint64
	// FragmentsOpened counts fragment boundaries crossed while recording.
	FragmentsOpened uint64
	// FramesTakenOver counts frames whose previous fragment belonged to a
	// different head signature (direct-mapped conflict).
	FramesTakenOver uint64
	// HeadActivations counts head-signature matches that (re)started
	// streaming a fragment.
	HeadActivations uint64
	// SigCacheHits counts on-chip signature matches.
	SigCacheHits uint64
	// Predictions counts issued last-touch prefetches.
	Predictions uint64
	// StreamedSigs counts signatures fetched from off-chip storage.
	StreamedSigs uint64
	// ConfUpdates counts confidence write-backs to off-chip storage.
	ConfUpdates uint64
	// Off-chip traffic in bytes, by Figure 12 category.
	SeqWriteBytes  uint64 // "sequence creation"
	SeqFetchBytes  uint64 // "sequence fetch"
	ConfWriteBytes uint64 // part of "sequence creation" in the paper
	// MirrorDivergences counts history-table installs whose victim was
	// absent from the mirror set — the mirror desyncing from the cache it
	// shadows. Zero for any consistent topology (including shared state
	// over private caches via NewShared's per-context banks).
	MirrorDivergences uint64
}

// frame is one off-chip sequence frame holding a fragment. Recording
// overwrites a frame in place, slot by slot, exactly as DRAM writes would:
// when the same sequence recurs, the rewritten content is identical and
// concurrent streaming reads stay coherent; when a different sequence takes
// the frame over (head mismatch), the frame is truncated, modeling the
// sequence tag array invalidating the old fragment.
type frame struct {
	sigs      []storedSig
	writePos  int
	head      history.Signature
	headValid bool
	// lastActive is the predictor's record count when this frame last
	// streamed or served a hit; it rate-limits head reactivation.
	lastActive uint64
}

// storedSig is one off-chip signature record: the signature, the predicted
// replacement block, and its confidence counter.
type storedSig struct {
	repl mem.Addr
	sig  history.Signature
	conf uint8
}

type predLoc struct {
	frame int32
	off   int32
}

// recStream is one context's recording state: the fragment it is currently
// appending to and the lookahead ring that selects fragment heads. Under
// shared state each context's core logs its own last-touch sequence; the
// fragments land in the shared frame array.
type recStream struct {
	recFrame int32
	started  bool
	ring     []history.Signature // last HeadLookahead recorded signatures
	ringN    uint64
	writeBuf int
}

// Predictor is the LT-cords prefetcher. It implements sim.Prefetcher,
// sim.EarlyEvictionObserver and sim.PrefetchFillObserver. Not safe for
// concurrent use.
type Predictor struct {
	p    Params
	geo  mem.Geometry
	hist *history.Table
	sc   *sigCache
	// ctxs > 1 means this instance is shared across that many private
	// per-context caches (NewShared): the history mirror is banked per
	// context, and bankSets is the per-bank set count folded into every
	// set index. ctxs == 1 ignores Ctx tags entirely (one physical cache,
	// shared or not, has one tag array to mirror).
	ctxs     int
	bankSets int

	frames    []frame
	frameMask int32
	window    []int32 // per-frame sliding window position (next offset to stream)

	// rec holds one recording stream per context. Frame storage is shared
	// (fragments from every context live in the same direct-mapped frame
	// array), but each context appends to its own fragment: consolidation
	// shares the predictor's storage, not the order of one core's miss
	// stream. A single interleaved stream would mix contexts' signatures
	// into every fragment, and the streamed sequence would match no one
	// context's future accesses.
	rec []recStream

	lastPred *predTable // victim block -> predicting signature location

	stats Stats
}

var _ sim.Prefetcher = (*Predictor)(nil)
var _ sim.EarlyEvictionObserver = (*Predictor)(nil)
var _ sim.PrefetchFillObserver = (*Predictor)(nil)
var _ sim.CtxPrefetchFillObserver = (*Predictor)(nil)

// New builds an LT-cords predictor attached to an L1D with the given
// configuration (the history table mirrors the L1D tag array).
func New(l1 cache.Config, p Params) (*Predictor, error) {
	return NewShared(l1, p, 1)
}

// NewShared builds an LT-cords predictor shared across contexts private
// caches of the given L1D geometry (the consolidated-server topology: one
// predictor, per-core L1Ds). The history mirror is banked per context so
// each bank stays in lockstep with its cache's tag array — an unbanked
// mirror desyncs immediately because different contexts' resident sets
// collide on set indices — and the Ctx tag participates in every
// signature through the banked row index. Recording is likewise banked:
// each context appends to its own fragment (one recStream per context),
// because last-touch sequences only repeat within one core's miss stream;
// a single global stream would interleave contexts into every fragment
// and the streamed sequence would match nothing. Off-chip sequence
// storage is sized by consolidation degree: Frames scales by the next
// power of two ≥ contexts, so per-program fragment capacity matches the
// standalone configuration. NewShared(l1, p, 1) is exactly New(l1, p).
func NewShared(l1 cache.Config, p Params, contexts int) (*Predictor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	if contexts < 1 {
		return nil, fmt.Errorf("core: contexts %d must be positive", contexts)
	}
	for scale := 1; scale < contexts; scale *= 2 {
		p.Frames *= 2
	}
	geo, err := mem.NewGeometry(l1.BlockSize, l1.Sets())
	if err != nil {
		return nil, err
	}
	rec := make([]recStream, contexts)
	for i := range rec {
		rec[i].ring = make([]history.Signature, p.HeadLookahead)
	}
	return &Predictor{
		p:         p,
		geo:       geo,
		hist:      history.NewBanked(l1.Sets(), l1.Assoc, contexts),
		sc:        newSigCache(p.SigCacheEntries, p.SigCacheAssoc),
		ctxs:      contexts,
		bankSets:  l1.Sets(),
		frames:    make([]frame, p.Frames),
		frameMask: int32(p.Frames - 1),
		window:    make([]int32, p.Frames),
		rec:       rec,
		lastPred:  newPredTable(),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(l1 cache.Config, p Params) *Predictor {
	pr, err := New(l1, p)
	if err != nil {
		panic(err)
	}
	return pr
}

// MustNewShared is NewShared that panics on error.
func MustNewShared(l1 cache.Config, p Params, contexts int) *Predictor {
	pr, err := NewShared(l1, p, contexts)
	if err != nil {
		panic(err)
	}
	return pr
}

// bankedSet folds the context into the history-mirror set index: bank
// ctx's rows start at ctx*bankSets. The single-context predictor ignores
// the tag (there is one bank), keeping New's behavior bit-identical.
func (pr *Predictor) bankedSet(ctx int, set int) int {
	if pr.ctxs > 1 {
		return ctx*pr.bankSets + set
	}
	return set
}

// ctxIndex maps a reference's Ctx tag to a recording stream. A standalone
// predictor has one stream regardless of the tags it sees (partitioned
// drivers hand each predictor a single context's references, but the tag
// keeps its global value).
func (pr *Predictor) ctxIndex(ctx int) int {
	if pr.ctxs == 1 {
		return 0
	}
	return ctx
}

// Name implements sim.Prefetcher.
func (pr *Predictor) Name() string { return "lt-cords" }

// Params returns the configuration.
func (pr *Predictor) Params() Params { return pr.p }

// Stats returns a copy of the event counters.
func (pr *Predictor) Stats() Stats {
	s := pr.stats
	s.MirrorDivergences = pr.hist.Divergences()
	return s
}

// OnAccess implements sim.Prefetcher: it records signatures at evictions,
// looks the current signature up on chip, issues last-touch prefetches, and
// advances sliding windows / activates fragments. Predictions are appended
// to the driver-owned preds buffer (never retained).
func (pr *Predictor) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []sim.Prediction) []sim.Prediction {
	set := pr.bankedSet(int(ref.Ctx), pr.geo.Index(ref.Addr))
	curTag := pr.geo.Tag(ref.Addr)
	curBlock := pr.geo.BlockAddr(ref.Addr)

	var evTag mem.Addr
	hasEv := false
	if evicted != nil && evicted.Valid {
		evTag = pr.geo.Tag(evicted.Addr)
		hasEv = true
	}
	// A demand miss displaced a block: its last-touch signature is recorded
	// with the missing block as the replacement address (Section 4.1).
	evictSig, evictOK, cur := pr.hist.Access(set, curTag, ref.PC, evTag, hasEv)
	evictSig = evictSig.Truncate(pr.sigBits())
	cur = cur.Truncate(pr.sigBits())
	if evictOK {
		pr.verifyAndRecord(pr.ctxIndex(int(ref.Ctx)), evictSig, curBlock)
	}

	if i := pr.sc.lookup(cur); i >= 0 {
		pr.stats.SigCacheHits++
		// Consume: advance this fragment's sliding window. The meta lane
		// is re-read through the index afterwards on purpose: streaming
		// may overwrite this very way, and the prediction must see what
		// the hardware's entry holds at that point.
		m := &pr.sc.meta[i]
		pr.stream(m.frame, int(m.off)+pr.p.WindowAhead)
		if m.conf >= pr.p.ConfThresh && m.repl != curBlock {
			// This access is predicted to be the last touch of curBlock;
			// fetch the replacement directly over it. The fill itself is
			// reported back via OnPrefetchFill, which closes curBlock's
			// episode and records its signature.
			if pr.p.TargetL2 {
				preds = append(preds, sim.Prediction{Addr: m.repl, ToL2: true})
			} else {
				preds = append(preds, sim.Prediction{Addr: m.repl, Victim: curBlock, UseVictim: true})
			}
			pr.stats.Predictions++
			pr.notePrediction(curBlock, predLoc{m.frame, m.off})
		}
	}

	pr.checkHead(cur)
	return preds
}

// OnPrefetchFill implements sim.PrefetchFillObserver: a prefetched block
// arrived, displacing the predicted-dead block. The displaced block's
// episode ends here — exactly as a demand miss would have ended it — so its
// signature is verified and re-recorded, keeping the off-chip sequence
// alive even when coverage eliminates the demand misses. Context 0's bank
// is assumed (monolithic drivers); Ctx-routing drivers use
// OnCtxPrefetchFill.
func (pr *Predictor) OnPrefetchFill(block mem.Addr, evicted *cache.EvictInfo) {
	pr.OnCtxPrefetchFill(0, block, evicted)
}

// OnCtxPrefetchFill implements sim.CtxPrefetchFillObserver: OnPrefetchFill
// with the context whose cache the fill landed in, selecting that
// context's mirror bank under shared state.
func (pr *Predictor) OnCtxPrefetchFill(ctx int, block mem.Addr, evicted *cache.EvictInfo) {
	set := pr.bankedSet(ctx, pr.geo.Index(block))
	tag := pr.geo.Tag(block)
	var vTag mem.Addr
	hasV := false
	if evicted != nil && evicted.Valid {
		vTag = pr.geo.Tag(evicted.Addr)
		hasV = true
	}
	sig, ok := pr.hist.PrefetchFill(set, tag, vTag, hasV)
	if ok {
		pr.carryAndRecord(pr.ctxIndex(ctx), sig.Truncate(pr.sigBits()), block)
	}
}

// sigBits returns the configured signature width (32 when unset).
func (pr *Predictor) sigBits() uint {
	if pr.p.SigBits == 0 {
		return 32
	}
	return pr.p.SigBits
}

// carryAndRecord re-records a signature whose episode was closed by the
// predictor's own prefetch, carrying its confidence unchanged. The covered
// path must NOT verify: the "observed replacement" is the prefetched block
// itself, so matching it would be circular — a stale signature would keep
// boosting its own confidence while evicting live blocks. Only demand
// evidence (verifyAndRecord) moves the counter up.
func (pr *Predictor) carryAndRecord(ctx int, sig history.Signature, repl mem.Addr) {
	conf := pr.p.ConfInit
	if i := pr.sc.lookup(sig); i >= 0 {
		conf = pr.sc.meta[i].conf
	}
	pr.record(ctx, sig, repl, conf)
}

// OnEarlyEviction implements sim.EarlyEvictionObserver: the block missed
// although the base system would have hit, i.e. a prediction evicted it
// prematurely. Lower the predicting signature's confidence (direct off-chip
// update through the stored pointer, Section 4.4).
func (pr *Predictor) OnEarlyEviction(block mem.Addr) {
	loc, ok := pr.lastPred.get(block)
	if !ok {
		return
	}
	pr.lastPred.del(block)
	fr := &pr.frames[loc.frame]
	if int(loc.off) >= len(fr.sigs) {
		return
	}
	s := &fr.sigs[loc.off]
	// A premature eviction manufactured a miss the base system would not
	// have had — the worst failure mode — so the counter resets outright;
	// the signature must re-prove itself through demand verification.
	s.conf = 0
	pr.stats.ConfUpdates++
	pr.stats.ConfWriteBytes++
	if i := pr.sc.lookup(s.sig); i >= 0 {
		pr.sc.meta[i].conf = 0
	}
}

func (pr *Predictor) notePrediction(victim mem.Addr, loc predLoc) {
	if pr.lastPred.len() > 1<<16 {
		// Bound the bookkeeping table; stale entries only cost missed
		// confidence decrements.
		pr.lastPred.reset()
	}
	pr.lastPred.put(victim, loc)
}

// verifyAndRecord updates confidence of the on-chip copy of sig against the
// observed replacement, then appends the new observation to the sequence.
// The new record inherits the verified counter — including a decremented
// one on mismatch. Inheriting the low confidence is what gives the 2-bit
// scheme its hysteresis here: a signature whose replacement changed must
// prove the new mapping for an iteration before it may prefetch again;
// re-recording at full initial confidence would let stale signatures evict
// live blocks forever (the paper's Section 4.4 counters exist precisely
// "to avoid premature eviction of L1D cache blocks by signatures that
// become invalid").
func (pr *Predictor) verifyAndRecord(ctx int, sig history.Signature, repl mem.Addr) {
	conf := pr.p.ConfInit
	if i := pr.sc.lookup(sig); i >= 0 {
		m := &pr.sc.meta[i]
		if m.repl == repl {
			if m.conf < pr.p.ConfMax {
				m.conf++
			}
		} else if m.conf > 0 {
			m.conf--
		}
		conf = m.conf
		// Write the counter through to the off-chip copy.
		fr := &pr.frames[m.frame]
		if int(m.off) < len(fr.sigs) && fr.sigs[m.off].sig == pr.sc.sigs[i] {
			fr.sigs[m.off].conf = m.conf
			pr.stats.ConfUpdates++
			pr.stats.ConfWriteBytes++
		}
	}
	pr.record(ctx, sig, repl, conf)
}

// record appends one signature to ctx's current recording fragment,
// write-combining off-chip transfers in TransferUnit units.
func (pr *Predictor) record(ctx int, sig history.Signature, repl mem.Addr, conf uint8) {
	rc := &pr.rec[ctx]
	if !rc.started {
		// The very first signature becomes the head of the initial frame so
		// the sequence start can be re-activated later.
		rc.started = true
		rc.recFrame = int32(uint32(sig)) & pr.frameMask
		fr := &pr.frames[rc.recFrame]
		fr.head = sig
		fr.headValid = true
	}
	fr := &pr.frames[rc.recFrame]
	if fr.sigs == nil {
		fr.sigs = make([]storedSig, 0, pr.p.FragmentSigs)
	}
	s := storedSig{repl: repl, sig: sig, conf: conf}
	if fr.writePos < len(fr.sigs) {
		fr.sigs[fr.writePos] = s
	} else {
		fr.sigs = append(fr.sigs, s)
	}
	fr.writePos++
	pr.stats.Recorded++
	rc.ring[rc.ringN%uint64(len(rc.ring))] = sig
	rc.ringN++
	rc.writeBuf++
	if rc.writeBuf >= pr.p.TransferUnit {
		pr.stats.SeqWriteBytes += uint64(rc.writeBuf * pr.p.SigBytes)
		rc.writeBuf = 0
	}
	if fr.writePos >= pr.p.FragmentSigs {
		pr.openFragment(ctx)
	}
}

// openFragment starts ctx's next recording fragment in the frame selected
// by the head signature (the signature ctx recorded HeadLookahead ago).
func (pr *Predictor) openFragment(ctx int) {
	rc := &pr.rec[ctx]
	pr.stats.FragmentsOpened++
	idx := uint64(0)
	if rc.ringN >= uint64(pr.p.HeadLookahead) {
		idx = rc.ringN - uint64(pr.p.HeadLookahead)
	}
	head := rc.ring[idx%uint64(len(rc.ring))]
	f := int32(uint32(head)) & pr.frameMask
	fr := &pr.frames[f]
	if fr.headValid && fr.head != head {
		// Direct-mapped conflict: a different sequence owned this frame.
		// The sequence tag array invalidates the old fragment.
		pr.stats.FramesTakenOver++
		fr.sigs = fr.sigs[:0]
	}
	fr.head = head
	fr.headValid = true
	fr.writePos = 0
	pr.window[f] = 0
	rc.recFrame = f
}

// stream advances frame f's sliding window to at least upTo (bounded by the
// fragment length), moving TransferUnit-sized groups of signatures from
// off-chip storage into the signature cache.
func (pr *Predictor) stream(f int32, upTo int) {
	fr := &pr.frames[f]
	fr.lastActive = pr.stats.Recorded
	n := len(fr.sigs)
	if upTo > n {
		upTo = n
	}
	w := int(pr.window[f])
	for w < upTo {
		end := w + pr.p.TransferUnit
		if end > n {
			end = n
		}
		// Two-pass transfer: first touch every target set of the transfer
		// unit — the loads are independent, so their (random, ~megabyte
		// working set) memory latencies overlap at full memory-level
		// parallelism — then run the inserts over warm lines. The warming
		// pass changes no state; the insert sequence is identical.
		for i := w; i < end; i++ {
			pr.sc.warm(fr.sigs[i].sig)
		}
		for i := w; i < end; i++ {
			s := fr.sigs[i]
			pr.sc.insert(sigEntry{
				sig:   s.sig,
				repl:  s.repl,
				conf:  s.conf,
				frame: f,
				off:   int32(i),
			})
		}
		pr.stats.StreamedSigs += uint64(end - w)
		pr.stats.SeqFetchBytes += uint64((end - w) * pr.p.SigBytes)
		w = end
	}
	if w > int(pr.window[f]) {
		pr.window[f] = int32(w)
	}
}

// checkHead consults the sequence tag array: if cur is the head signature of
// a frame, (re)start streaming that fragment from its beginning. A fragment
// that is already being actively consumed is not restarted: head signatures
// can collide with frequently recurring (e.g. hot-loop) signatures, and
// unconditional restarts would re-stream the fragment endlessly, wasting
// off-chip bandwidth. A frame counts as active until a full fragment's
// worth of misses passes without it streaming or serving a hit.
func (pr *Predictor) checkHead(cur history.Signature) {
	f := int32(uint32(cur)) & pr.frameMask
	fr := &pr.frames[f]
	if !fr.headValid || fr.head != cur || len(fr.sigs) == 0 {
		return
	}
	if pr.window[f] != 0 && pr.stats.Recorded-fr.lastActive < uint64(pr.p.FragmentSigs) {
		return // recently active: leave the in-progress stream alone
	}
	pr.stats.HeadActivations++
	pr.window[f] = 0
	pr.stream(f, pr.p.WindowAhead)
}

// OnChipBytes reports the configured on-chip budget.
func (pr *Predictor) OnChipBytes() int { return pr.p.OnChipBytes() }

// OffChipTrafficBytes reports cumulative off-chip metadata traffic
// (sequence creation including confidence write-backs, and sequence fetch).
// The timing engine charges these bytes to the memory bus.
func (pr *Predictor) OffChipTrafficBytes() (writes, fetches uint64) {
	return pr.stats.SeqWriteBytes + pr.stats.ConfWriteBytes, pr.stats.SeqFetchBytes
}

// String summarises the configuration.
func (pr *Predictor) String() string {
	return fmt.Sprintf("lt-cords{sigcache=%d/%d-way frames=%d frag=%d onchip=%dKB offchip=%dMB}",
		pr.p.SigCacheEntries, pr.p.SigCacheAssoc, pr.p.Frames, pr.p.FragmentSigs,
		pr.p.OnChipBytes()/1024, pr.p.OffChipBytes()/(1<<20))
}
