// Package trace defines the memory-reference record that flows through the
// simulators, together with composable reference sources (generators,
// filters, interleavers) and the materialized-trace store (LTCX), the one
// binary trace format.
//
// A Ref is one committed memory instruction. Trace-driven simulation
// (paper Sections 5.1-5.6) consumes only PC, Addr and Kind; the timing model
// (Sections 5.7-5.8) additionally uses Gap (non-memory instructions since
// the previous reference) and the Dep flag (the reference's address depends
// on the value loaded by the previous memory reference, as in pointer
// chasing), which together determine how much memory-level parallelism the
// out-of-order core can extract.
//
// References flow in batches: ReadRefs is the Source contract
// (io.Reader-style, producing into a caller-owned buffer), and every
// generator and combinator in this repository produces directly into the
// consumer's buffer so that steady-state streaming performs no per-reference
// heap allocation. See DESIGN.md §"Reference pipeline" for the
// buffer-ownership rules.
package trace

import "repro/internal/mem"

// Kind classifies a memory reference.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Ref is a single committed memory reference.
type Ref struct {
	// PC is the program counter of the memory instruction.
	PC mem.Addr
	// Addr is the referenced data address (byte-granular).
	Addr mem.Addr
	// Kind says whether the reference reads or writes.
	Kind Kind
	// Gap is the number of non-memory instructions committed between the
	// previous reference and this one. The timing model charges them at the
	// core's issue width.
	Gap uint8
	// Dep marks the reference's address as data-dependent on the previous
	// memory reference (pointer chasing): the timing model may not issue it
	// before the previous load's value returns.
	Dep bool
	// Ctx identifies the software context (program) that issued the
	// reference. Single-program workloads use context 0; the
	// multi-programmed experiments interleave contexts 0 and 1.
	Ctx uint8
}

// MaxContexts is the number of distinct software contexts the Ctx tag can
// carry (uint8, contexts 0..255). The consolidation builders and the
// sharded coverage driver guard against mixes beyond this space instead of
// silently aliasing tags.
const MaxContexts = 256

// DefaultBatch is the batch-buffer size the drivers and adapters use when
// pumping a Source. Large enough to amortize the per-batch virtual call to
// nothing, small enough to stay cache-resident (512 refs × 24 B ≈ 12 KB).
const DefaultBatch = 512

// Source produces a stream of references.
//
// ReadRefs fills buf with up to len(buf) references and returns how many
// it produced. A return of 0 (for a non-empty buf) means the stream is
// exhausted; short reads may occur at any time, so consumers must loop
// until 0. The buffer belongs to the caller: a Source must not retain buf
// (or sub-slices of it) after ReadRefs returns, and the caller is free to
// reuse it for the next call. Sources are single-use unless documented
// otherwise.
type Source interface {
	ReadRefs(buf []Ref) int
}

// SliceSource replays a fixed slice of references.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource returns a Source that yields refs in order.
func NewSliceSource(refs []Ref) *SliceSource {
	return &SliceSource{refs: refs}
}

// ReadRefs implements Source.
func (s *SliceSource) ReadRefs(buf []Ref) int {
	n := copy(buf, s.refs[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning so it can be replayed.
func (s *SliceSource) Reset() { s.pos = 0 }

// FillFunc adapts a batch fill function to the Source interface. The
// function must follow the ReadRefs contract (return 0 only at exhaustion).
// This is the adapter all batch-native generators and combinators use.
type FillFunc func(buf []Ref) int

// ReadRefs implements Source.
func (f FillFunc) ReadRefs(buf []Ref) int { return f(buf) }

// Puller adapts a batch Source for one-reference-at-a-time consumption with
// amortized batch reads: interleaving combinators that must make a per-ref
// decision (InterleaveQuantaN, workload.Mix) pull through one of these so
// the underlying source still produces full batches.
type Puller struct {
	src    Source
	buf    []Ref
	pos, n int
}

// NewPuller wraps src, reading it DefaultBatch references at a time.
func NewPuller(src Source) *Puller {
	return &Puller{src: src, buf: make([]Ref, DefaultBatch)}
}

// Next returns the next reference, refilling the internal batch as needed.
func (p *Puller) Next() (Ref, bool) {
	if p.pos >= p.n {
		p.n = p.src.ReadRefs(p.buf)
		p.pos = 0
		if p.n == 0 {
			return Ref{}, false
		}
	}
	r := p.buf[p.pos]
	p.pos++
	return r, true
}

// Limit wraps src and stops after n references.
func Limit(src Source, n uint64) Source {
	remaining := n
	return FillFunc(func(buf []Ref) int {
		if remaining == 0 {
			return 0
		}
		if uint64(len(buf)) > remaining {
			buf = buf[:remaining]
		}
		got := src.ReadRefs(buf)
		remaining -= uint64(got)
		return got
	})
}

// Collect drains src into a slice, up to max references (0 means no limit).
func Collect(src Source, max int) []Ref {
	var out []Ref
	var buf [DefaultBatch]Ref
	for {
		b := buf[:]
		if max > 0 {
			if len(out) >= max {
				return out
			}
			if left := max - len(out); left < len(b) {
				b = b[:left]
			}
		}
		n := src.ReadRefs(b)
		if n == 0 {
			return out
		}
		out = append(out, b[:n]...)
	}
}

// Count drains src and returns the number of references it produced.
func Count(src Source) uint64 {
	var buf [DefaultBatch]Ref
	var n uint64
	for {
		got := src.ReadRefs(buf[:])
		if got == 0 {
			return n
		}
		n += uint64(got)
	}
}

// ForEach drains src, invoking fn for every reference in stream order. It
// pumps through an internal DefaultBatch-sized buffer, amortizing the
// per-batch virtual call; consumers that only need a per-reference visit
// should use this instead of hand-rolling the ReadRefs loop.
func ForEach(src Source, fn func(Ref)) {
	var buf [DefaultBatch]Ref
	for {
		n := src.ReadRefs(buf[:])
		if n == 0 {
			return
		}
		for i := range buf[:n] {
			fn(buf[i])
		}
	}
}

// Offset shifts every data address produced by src by delta bytes and stamps
// refs with the given context id. The multi-programmed experiments use it to
// give each program a disjoint physical range, as the paper does
// ("the addresses accessed by one application in each pair were shifted to
// simulate non-overlapping physical address ranges"). The rewrite happens in
// place in the consumer's batch buffer: no copy, no allocation.
func Offset(src Source, delta mem.Addr, ctx uint8) Source {
	return FillFunc(func(buf []Ref) int {
		n := src.ReadRefs(buf)
		for i := range buf[:n] {
			buf[i].Addr += delta
			buf[i].Ctx = ctx
		}
		return n
	})
}

// InterleaveQuanta alternates between two sources in fixed-size quanta of
// committed instructions (memory references plus their gaps), mimicking
// context switches. Instruction counts follow the paper's Section 5.5 setup:
// execution alternates between the two programs with per-program quanta.
// When one program exits, the other continues alone (no more switches); the
// stream ends when both are exhausted, or after maxSwitches context
// switches (0 means unlimited). It is the N=2 case of InterleaveQuantaN.
func InterleaveQuanta(a, b Source, quantumA, quantumB uint64, maxSwitches int) Source {
	return InterleaveQuantaN([]Source{a, b}, []uint64{quantumA, quantumB}, maxSwitches)
}

// InterleaveQuantaN rotates execution round-robin across n sources in
// fixed-size per-source quanta of committed instructions (memory references
// plus their gaps), modelling context switches in a consolidated server mix.
// quanta[i] is source i's quantum; len(quanta) must equal len(srcs).
// Exhausted sources drop out of the rotation (rotating past one does not
// count as a context switch); when only one source remains it runs alone.
// The stream ends when every source is exhausted, or after maxSwitches
// context switches (0 means unlimited). Ctx tags are preserved, not
// assigned: tag each source before interleaving (see Offset).
func InterleaveQuantaN(srcs []Source, quanta []uint64, maxSwitches int) Source {
	if len(quanta) != len(srcs) {
		panic("trace: InterleaveQuantaN: len(quanta) != len(srcs)")
	}
	if len(srcs) == 0 {
		return FillFunc(func([]Ref) int { return 0 })
	}
	pullers := make([]*Puller, len(srcs))
	for i, s := range srcs {
		pullers[i] = NewPuller(s)
	}
	exhausted := make([]bool, len(srcs))
	live := len(srcs)
	active := 0
	var instrs uint64
	switches := 0
	stopped := false
	// nextLive returns the first non-exhausted source after `from` in
	// rotation order (excluding `from` itself), or -1 when no other source
	// is live — in which case the quantum expiry does not switch and the
	// survivor keeps running.
	nextLive := func(from int) int {
		for i := 1; i < len(srcs); i++ {
			if j := (from + i) % len(srcs); !exhausted[j] {
				return j
			}
		}
		return -1
	}
	return FillFunc(func(buf []Ref) int {
		for i := range buf {
		fill:
			for {
				if stopped || live == 0 {
					return i
				}
				if exhausted[active] {
					nl := nextLive(active)
					if nl < 0 {
						return i
					}
					active, instrs = nl, 0
					continue
				}
				if instrs >= quanta[active] {
					if nl := nextLive(active); nl >= 0 {
						if maxSwitches > 0 && switches+1 >= maxSwitches {
							stopped = true
							return i
						}
						switches++
						active, instrs = nl, 0
					} else {
						// Sole survivor: exhaustion is permanent, so no
						// future expiry can switch either — restart the
						// quantum so the scan above runs once per quantum,
						// not per reference.
						instrs = 0
					}
				}
				r, ok := pullers[active].Next()
				if !ok {
					exhausted[active] = true
					live--
					continue
				}
				instrs += uint64(r.Gap) + 1
				buf[i] = r
				break fill
			}
		}
		return len(buf)
	})
}

// Stats summarises a reference stream.
type Stats struct {
	Refs   uint64 // total memory references
	Loads  uint64
	Stores uint64
	Instrs uint64 // total committed instructions (refs + gaps)
	Deps   uint64 // references flagged as dependent
}

// Observe folds one reference into the stats.
func (s *Stats) Observe(r Ref) {
	s.Refs++
	s.Instrs += uint64(r.Gap) + 1
	if r.Kind == Store {
		s.Stores++
	} else {
		s.Loads++
	}
	if r.Dep {
		s.Deps++
	}
}

// BatchLanes are the caller-owned parallel lanes a reference batch splits
// into before entering the cache (cache.AccessBatchHits, or one Access
// per reference): addresses, write flags, and the per-reference
// instruction clock. Fill implements the one clock rule every driver shares — the
// clock advances by Gap+1 per reference (DESIGN.md §7/§9) — so drivers do
// not each hand-roll the prep loop. The lanes are reused across Fill
// calls; steady-state batch pumping allocates nothing.
type BatchLanes struct {
	Addrs  []mem.Addr
	Writes []bool
	Nows   []uint64
	clock  uint64
}

// NewBatchLanes sizes lanes for batches of up to n references (they grow
// if a larger batch arrives).
func NewBatchLanes(n int) *BatchLanes {
	return &BatchLanes{
		Addrs:  make([]mem.Addr, n),
		Writes: make([]bool, n),
		Nows:   make([]uint64, n),
	}
}

// Fill populates the lanes from refs: Addrs[i]/Writes[i] mirror the
// reference, and Nows[i] carries the advancing instruction clock. The
// filled prefixes are Addrs[:len(refs)] etc.
func (b *BatchLanes) Fill(refs []Ref) {
	if len(refs) > len(b.Addrs) {
		b.Addrs = make([]mem.Addr, len(refs))
		b.Writes = make([]bool, len(refs))
		b.Nows = make([]uint64, len(refs))
	}
	now := b.clock
	for i, ref := range refs {
		now += uint64(ref.Gap) + 1
		b.Nows[i] = now
		b.Addrs[i] = ref.Addr
		b.Writes[i] = ref.Kind == Store
	}
	b.clock = now
}

// Clock returns the instruction clock after the most recent Fill.
func (b *BatchLanes) Clock() uint64 { return b.clock }
