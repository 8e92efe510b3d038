package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"

	"repro/internal/atomicfile"
	"repro/internal/mem"
)

// This file implements the materialized-trace store (LTCX), the one
// trace file format: a reference stream encoded once into delta-encoded
// chunks and replayed any number of times through independent cursors.
//
// Generation is the only per-cell cost the experiment scheduler cannot
// dedupe by memoizing results — every analysis of one (preset, scale,
// seed) re-runs the generators. Materialize runs them exactly once:
// the stream is encoded into fixed-size chunks (DefaultRefsPerChunk
// references each) using the delta record format below, with the
// delta state (prevPC/prevAddr) reset at every chunk boundary and the
// chunk byte offsets recorded in an index. Each chunk is therefore an
// independent decode entry point, and a Cursor — a zero-alloc Source
// over the store — can be created per consumer and replayed
// concurrently with any number of siblings: the store is immutable
// after Materialize, cursors carry all replay state.
//
// A store is its list of chunks. In memory, Materialize encodes each
// chunk into one reused scratch buffer and copies it once into its own
// exact-size slice, so the heap holds the encoded bytes (a few per
// reference, 4-6x below []Ref) and little more. WriteFile persists the
// store — chunk index in the file header — and OpenStore maps the file
// back via mmap and slices the chunks out of the mapping, so multi-GB
// recorded traces replay at decode bandwidth without heap churn. See
// DESIGN.md §10.

// DefaultRefsPerChunk is the references-per-chunk Materialize uses: 16K
// references encode to ~64-96KB, large enough that the per-chunk delta
// reset is free, small enough that a chunk stays cache-resident while a
// cursor streams through it.
const DefaultRefsPerChunk = 1 << 14

// Materialized is a reference stream encoded once into indexed
// delta-encoded chunks (the materialized-trace store). It is immutable
// after construction: any number of Cursors may replay it concurrently.
type Materialized struct {
	chunks       [][]byte // chunk i's encoded records
	refsPerChunk int
	stats        Stats

	mapped  []byte          // whole-file mmap region the chunks alias, when file-backed
	release runtime.Cleanup // unmaps mapped once the store is unreachable
}

// Materialize drains src into a new in-memory store using
// DefaultRefsPerChunk. The encoding is lossless: cursor replay is
// bit-identical to the source stream.
func Materialize(src Source) *Materialized {
	return MaterializeChunked(src, DefaultRefsPerChunk)
}

// MaterializeChunked is Materialize with an explicit chunk size in
// references (<= 0 selects DefaultRefsPerChunk). Smaller chunks mean a
// denser index and slightly worse compression (each chunk restarts the
// deltas); the tests use tiny chunks to exercise boundary handling.
func MaterializeChunked(src Source, refsPerChunk int) *Materialized {
	if refsPerChunk <= 0 {
		refsPerChunk = DefaultRefsPerChunk
	}
	m := &Materialized{refsPerChunk: refsPerChunk}
	var (
		buf      [DefaultBatch]Ref
		prevPC   mem.Addr
		prevAddr mem.Addr
		inChunk  int
		// One chunk's worst case, so appending records never regrows it.
		scratch = make([]byte, 0, min(refsPerChunk, DefaultRefsPerChunk)*maxRecordBytes)
	)
	for {
		n := src.ReadRefs(buf[:])
		if n == 0 {
			break
		}
		for i := range buf[:n] {
			r := buf[i]
			if inChunk == refsPerChunk {
				m.chunks = append(m.chunks, bytes.Clone(scratch))
				scratch = scratch[:0]
				prevPC, prevAddr, inChunk = 0, 0, 0
			}
			scratch = appendRecord(scratch, r, prevPC, prevAddr)
			prevPC, prevAddr = r.PC, r.Addr
			inChunk++
			m.stats.Observe(r)
		}
	}
	if inChunk > 0 {
		m.chunks = append(m.chunks, bytes.Clone(scratch))
	}
	return m
}

// Each reference is one delta-encoded record:
//
//	flags byte: bit0 kind (1=store), bit1 dep, bits2-3 ctx (when <= 3),
//	            bit4 extended ctx (a full ctx byte follows flags)
//	ctx   byte (only when flags bit4 is set): the full uint8 context id
//	gap   byte
//	pc    delta from previous pc, zigzag uvarint
//	addr  delta from previous addr, zigzag uvarint
//
// The extended-ctx form keeps consolidation mixes beyond 4 contexts exact
// (no silent truncation of the Ctx tag). Consecutive references have
// strong spatial locality in both PC and data address, so zigzag deltas
// keep real traces small (typically 4-6 bytes per reference versus 19
// for the raw struct).

// ErrBadTrace reports a malformed trace store.
var ErrBadTrace = errors.New("trace: malformed stream")

func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// appendRecord appends one reference in the record format (flags,
// optional extended ctx, gap, zigzag pc/addr deltas).
func appendRecord(dst []byte, r Ref, prevPC, prevAddr mem.Addr) []byte {
	flags := byte(0)
	if r.Kind == Store {
		flags |= 1
	}
	if r.Dep {
		flags |= 2
	}
	if r.Ctx <= 3 {
		dst = append(dst, flags|r.Ctx<<2)
	} else {
		dst = append(dst, flags|1<<4, r.Ctx)
	}
	dst = append(dst, r.Gap)
	dst = binary.AppendUvarint(dst, zigzag(int64(r.PC)-int64(prevPC)))
	return binary.AppendUvarint(dst, zigzag(int64(r.Addr)-int64(prevAddr)))
}

// Stats returns the stream statistics accumulated while materializing
// (or recorded in the file header of an opened store). Consumers that
// only need totals — reference or instruction counts — read them here
// instead of paying a replay pass.
func (m *Materialized) Stats() Stats { return m.stats }

// Refs returns the number of references in the store.
func (m *Materialized) Refs() uint64 { return m.stats.Refs }

// Chunks returns the number of chunks in the index.
func (m *Materialized) Chunks() int { return len(m.chunks) }

// RefsPerChunk returns the chunking interval (every chunk except the
// last holds exactly this many references).
func (m *Materialized) RefsPerChunk() int { return m.refsPerChunk }

// Bytes returns the encoded size of the chunk data.
func (m *Materialized) Bytes() int {
	n := 0
	for _, c := range m.chunks {
		n += len(c)
	}
	return n
}

// Mapped reports whether the store replays from an mmap'd file rather
// than heap memory.
func (m *Materialized) Mapped() bool { return m.mapped != nil }

// Cursor returns an independent replay reader positioned at the start of
// the stream. Cursors are cheap (one small allocation, no buffering —
// they decode straight out of the store) and any number may read
// concurrently; each is single-goroutine like any Source. A cursor holds
// its store, so a live cursor keeps a mapped store's mapping alive.
func (m *Materialized) Cursor() *Cursor { return &Cursor{m: m} }

// Cursor replays a materialized trace. It implements Source; the replay
// loop performs no heap allocation.
type Cursor struct {
	m        *Materialized
	chunk    int    // next chunk to load
	data     []byte // current chunk's records
	pos      int    // next record offset within data
	prevPC   mem.Addr
	prevAddr mem.Addr
	err      error
}

// Reset rewinds the cursor to the start of the stream.
func (c *Cursor) Reset() { *c = Cursor{m: c.m} }

// Err returns nil after a clean end of stream, or the decode error that
// terminated the cursor (possible only on stores opened from files).
func (c *Cursor) Err() error { return c.err }

// maxRecordBytes bounds one encoded record: flags + extended ctx + gap
// plus two 10-byte uvarints. Decoding inside this margin needs no
// per-field bounds handling.
const maxRecordBytes = 2 + 1 + 2*10

// ReadRefs implements Source: it decodes up to len(buf) references
// directly into the caller's buffer.
func (c *Cursor) ReadRefs(buf []Ref) int {
	n := 0
	for n < len(buf) {
		if c.pos >= len(c.data) {
			if c.chunk >= c.m.Chunks() || c.err != nil {
				return n
			}
			c.data = c.m.chunks[c.chunk]
			c.chunk++
			c.pos = 0
			c.prevPC, c.prevAddr = 0, 0
		}
		data, pos := c.data, c.pos
		prevPC, prevAddr := c.prevPC, c.prevAddr
		// Hot loop: while a full worst-case record fits, decode without
		// per-field truncation checks, with inline uvarint fast paths for
		// the one- and two-byte deltas that dominate real streams.
		for n < len(buf) && pos <= len(data)-maxRecordBytes {
			flags := data[pos]
			pos++
			ctx := (flags >> 2) & 3
			if flags&(1<<4) != 0 {
				ctx = data[pos]
				pos++
			}
			gap := data[pos]
			pos++
			// Each delta decodes from one 8-byte word: a 1-byte fast path
			// for the dominant case, then a branch-light shift-mask
			// compaction for 2-8 byte deltas (byte count from the first
			// clear continuation bit; 7-bit groups compacted with
			// shift-and-or — the generic decoder's per-byte loop branches
			// on every byte of the 3-5 byte address deltas that
			// interleaved-array workloads produce). Written out inline
			// twice: a helper exceeds the inlining budget, and two calls
			// per record cost more than the whole decode. >= 2^56 deltas
			// (9-10 byte varints) fall back to the generic decoder.
			var dpc uint64
			if b := data[pos]; b < 0x80 {
				dpc = uint64(b)
				pos++
			} else if x := binary.LittleEndian.Uint64(data[pos:]); ^x&0x8080808080808080 != 0 {
				k := bits.TrailingZeros64(^x&0x8080808080808080)/8 + 1
				x &= ^uint64(0) >> (64 - 8*uint(k))
				dpc = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
					x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
				pos += k
			} else {
				v, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					c.fail(fmt.Errorf("%w: malformed pc delta", ErrBadTrace), pos)
					return n
				}
				dpc = v
				pos += k
			}
			var daddr uint64
			if b := data[pos]; b < 0x80 {
				daddr = uint64(b)
				pos++
			} else if x := binary.LittleEndian.Uint64(data[pos:]); ^x&0x8080808080808080 != 0 {
				k := bits.TrailingZeros64(^x&0x8080808080808080)/8 + 1
				x &= ^uint64(0) >> (64 - 8*uint(k))
				daddr = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
					x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
				pos += k
			} else {
				v, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					c.fail(fmt.Errorf("%w: malformed addr delta", ErrBadTrace), pos)
					return n
				}
				daddr = v
				pos += k
			}
			prevPC = mem.Addr(int64(prevPC) + unzigzag(dpc))
			prevAddr = mem.Addr(int64(prevAddr) + unzigzag(daddr))
			buf[n] = Ref{
				PC:   prevPC,
				Addr: prevAddr,
				Kind: Kind(flags & 1),
				Gap:  gap,
				Dep:  flags&2 != 0,
				Ctx:  ctx,
			}
			n++
		}
		// Chunk tail: the same decode with explicit truncation checks
		// (reachable only on stores opened from files — in-process
		// materialization never truncates).
		for n < len(buf) && pos < len(data) {
			flags := data[pos]
			pos++
			ctx := (flags >> 2) & 3
			if flags&(1<<4) != 0 {
				if pos >= len(data) {
					c.fail(fmt.Errorf("%w: truncated extended ctx", ErrBadTrace), pos)
					return n
				}
				ctx = data[pos]
				pos++
			}
			if pos >= len(data) {
				c.fail(fmt.Errorf("%w: truncated record", ErrBadTrace), pos)
				return n
			}
			gap := data[pos]
			pos++
			dpc, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				c.fail(fmt.Errorf("%w: truncated pc delta", ErrBadTrace), pos)
				return n
			}
			pos += k
			daddr, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				c.fail(fmt.Errorf("%w: truncated addr delta", ErrBadTrace), pos)
				return n
			}
			pos += k
			prevPC = mem.Addr(int64(prevPC) + unzigzag(dpc))
			prevAddr = mem.Addr(int64(prevAddr) + unzigzag(daddr))
			buf[n] = Ref{
				PC:   prevPC,
				Addr: prevAddr,
				Kind: Kind(flags & 1),
				Gap:  gap,
				Dep:  flags&2 != 0,
				Ctx:  ctx,
			}
			n++
		}
		c.pos, c.prevPC, c.prevAddr = pos, prevPC, prevAddr
	}
	return n
}

// fail terminates the cursor with a decode error.
func (c *Cursor) fail(err error, pos int) {
	c.err = err
	c.pos = pos
	c.data = nil
	c.chunk = c.m.Chunks()
}

// The store container format persists the chunk index in the header so a
// reader seeks without scanning the data:
//
//	magic "LTCX" | version byte
//	u32 refsPerChunk
//	u64 refs, loads, stores, instrs, deps   (the Stats)
//	u32 chunk count n
//	(n+1) x u64 chunk offsets, relative to the data section (offs[0]=0,
//	        offs[n]=len(data))
//	chunk data (records in the delta format above, deltas reset at
//	        every chunk boundary)
//
// All integers little-endian fixed width: the header is parsed in place
// from the mapped file.
const (
	storeMagic      = "LTCX"
	storeVersion    = 1
	storeFixedHead  = 4 + 1 + 4 + 5*8 + 4 // through the chunk count
	storeMaxRefsPer = 1 << 30             // sanity bound when opening
)

// headerBytes renders the container header.
func (m *Materialized) headerBytes() []byte {
	h := make([]byte, 0, storeFixedHead+8*(m.Chunks()+1))
	h = append(h, storeMagic...)
	h = append(h, storeVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(m.refsPerChunk))
	for _, v := range []uint64{m.stats.Refs, m.stats.Loads, m.stats.Stores, m.stats.Instrs, m.stats.Deps} {
		h = binary.LittleEndian.AppendUint64(h, v)
	}
	h = binary.LittleEndian.AppendUint32(h, uint32(m.Chunks()))
	// offs[0]=0, which a refless store records too, then each chunk's end.
	h = binary.LittleEndian.AppendUint64(h, 0)
	var off uint64
	for _, c := range m.chunks {
		off += uint64(len(c))
		h = binary.LittleEndian.AppendUint64(h, off)
	}
	return h
}

// WriteTo streams the store's serialized form — header, chunk index,
// chunk data — to w (the exact bytes WriteFile persists; the persistent
// cache content-addresses stores by hashing this stream).
func (m *Materialized) WriteTo(w io.Writer) (int64, error) {
	defer runtime.KeepAlive(m) // the chunks may alias m's mapping
	n, err := w.Write(m.headerBytes())
	total := int64(n)
	for i := 0; err == nil && i < len(m.chunks); i++ {
		n, err = w.Write(m.chunks[i])
		total += int64(n)
	}
	return total, err
}

// WriteFile persists the store to path, replacing any existing file. The
// write is crash-safe: the bytes are staged in a temporary file in the
// target directory, fsynced, and atomically renamed into place — an
// interrupted run can leave a stale temp file but never a truncated
// store that a later cache open would trust (see internal/atomicfile).
func (m *Materialized) WriteFile(path string) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	})
}

// OpenStore maps a store file written by WriteFile (or lttrace -out)
// for replay. The chunk data is not copied onto the heap: on platforms
// with mmap support the page cache backs it directly, so traces far
// larger than memory replay at decode bandwidth. The file is closed once
// mapped; the mapping is released by Close or, failing that, once the
// store and all its cursors are unreachable.
func OpenStore(path string) (*Materialized, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < storeFixedHead+8 {
		return nil, fmt.Errorf("%w: store file too short (%d bytes)", ErrBadTrace, size)
	}
	raw, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	m, err := parseStore(raw)
	if err != nil {
		munmap(raw)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.mapped = raw
	m.release = runtime.AddCleanup(m, func(raw []byte) { munmap(raw) }, raw)
	return m, nil
}

// parseStore validates the container and slices the store's chunks out
// of raw.
func parseStore(raw []byte) (*Materialized, error) {
	if string(raw[:4]) != storeMagic {
		return nil, fmt.Errorf("%w: bad store magic %q", ErrBadTrace, raw[:4])
	}
	if v := raw[4]; v != storeVersion {
		return nil, fmt.Errorf("%w: unsupported store version %d", ErrBadTrace, v)
	}
	m := &Materialized{refsPerChunk: int(binary.LittleEndian.Uint32(raw[5:]))}
	m.stats.Refs = binary.LittleEndian.Uint64(raw[9:])
	m.stats.Loads = binary.LittleEndian.Uint64(raw[17:])
	m.stats.Stores = binary.LittleEndian.Uint64(raw[25:])
	m.stats.Instrs = binary.LittleEndian.Uint64(raw[33:])
	m.stats.Deps = binary.LittleEndian.Uint64(raw[41:])
	nChunks := int(binary.LittleEndian.Uint32(raw[49:]))
	if m.refsPerChunk <= 0 || m.refsPerChunk > storeMaxRefsPer {
		return nil, fmt.Errorf("%w: implausible refs-per-chunk %d", ErrBadTrace, m.refsPerChunk)
	}
	dataOff := storeFixedHead + 8*(int64(nChunks)+1)
	if int64(len(raw)) < dataOff {
		return nil, fmt.Errorf("%w: truncated chunk index (%d chunks)", ErrBadTrace, nChunks)
	}
	data := raw[dataOff:]
	off := func(i int) uint64 { return binary.LittleEndian.Uint64(raw[storeFixedHead+8*i:]) }
	if off(0) != 0 || off(nChunks) != uint64(len(data)) {
		return nil, fmt.Errorf("%w: chunk index does not span the data section", ErrBadTrace)
	}
	if nChunks > 0 {
		m.chunks = make([][]byte, nChunks)
	}
	for i := range m.chunks {
		lo, hi := off(i), off(i+1)
		if hi < lo || hi > uint64(len(data)) {
			return nil, fmt.Errorf("%w: chunk index not monotonic", ErrBadTrace)
		}
		m.chunks[i] = data[lo:hi:hi]
	}
	return m, nil
}

// Close releases the file mapping of a store opened with OpenStore. It is
// a no-op for in-memory stores. The store and any of its cursors must
// not be used afterwards.
func (m *Materialized) Close() error {
	if m.mapped == nil {
		return nil
	}
	m.release.Stop() // so the mapping is never unmapped twice
	err := munmap(m.mapped)
	m.mapped, m.chunks = nil, nil
	return err
}
