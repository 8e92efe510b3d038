package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// The binary trace format is a stream of delta-encoded records:
//
//	magic "LTCT" | version byte | records...
//
// Each record is:
//
//	flags byte: bit0 kind (1=store), bit1 dep, bits2-3 ctx (when <= 3),
//	            bit4 extended ctx (a full ctx byte follows flags)
//	ctx   byte (only when flags bit4 is set): the full uint8 context id
//	gap   byte
//	pc    delta from previous pc, zigzag uvarint
//	addr  delta from previous addr, zigzag uvarint
//
// The extended-ctx form keeps consolidation mixes beyond 4 contexts exact
// (no silent truncation of the Ctx tag). Streams that only use contexts
// 0-3 — every stream the version 1 format could represent — encode their
// records byte-identically to version 1; only the header's version byte
// differs (the writer stamps 2, see codecVersion).
//
// Consecutive references have strong spatial locality in both PC and data
// address, so zigzag deltas keep real traces small (typically 4-6 bytes per
// reference versus 19 for the raw struct).

const (
	codecMagic = "LTCT"
	// codecVersion 2 added the extended-ctx record form (flags bit4 + a
	// full ctx byte). Version 1 streams never set bit4 and decode under
	// the same rules, so the reader accepts both; the writer stamps 2 so
	// version-1-only readers reject extended streams instead of
	// misparsing the ctx byte as the gap.
	codecVersion    = 2
	codecMinVersion = 1
)

// Writer streams references into an io.Writer using the binary trace format.
type Writer struct {
	w        *bufio.Writer
	prevPC   mem.Addr
	prevAddr mem.Addr
	started  bool
	count    uint64
	buf      [2*binary.MaxVarintLen64 + 3]byte
}

// NewWriter creates a trace writer and emits the stream header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(codecVersion); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// WriteRefs appends a batch of references to the stream.
func (w *Writer) WriteRefs(refs []Ref) error {
	for i := range refs {
		if err := w.Write(refs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Write appends one reference to the stream. The record bytes come from
// appendRecord (store.go) — the single encoder the streaming format and
// the materialized store share.
func (w *Writer) Write(r Ref) error {
	rec := appendRecord(w.buf[:0], r, w.prevPC, w.prevAddr)
	w.prevPC, w.prevAddr = r.PC, r.Addr
	w.count++
	_, err := w.w.Write(rec)
	return err
}

// Count returns the number of references written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a binary trace stream. It implements Source.
type Reader struct {
	r        *bufio.Reader
	prevPC   mem.Addr
	prevAddr mem.Addr
	err      error
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed stream")

// NewReader validates the header and returns a reader for the stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(codecMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadTrace, err)
	}
	if string(head[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, head[:len(codecMagic)])
	}
	if v := head[len(codecMagic)]; v < codecMinVersion || v > codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	return &Reader{r: br}, nil
}

// ReadRefs implements Source: it decodes up to len(buf) records directly
// into the caller's buffer. After exhaustion or an error, Err distinguishes
// clean EOF from a malformed stream.
func (r *Reader) ReadRefs(buf []Ref) int {
	for i := range buf {
		if !r.readOne(&buf[i]) {
			return i
		}
	}
	return len(buf)
}

// readOne decodes one record into out, returning false at end of stream or
// on a decoding error (recorded in r.err).
func (r *Reader) readOne(out *Ref) bool {
	if r.err != nil {
		return false
	}
	flags, err := r.r.ReadByte()
	if err == io.EOF {
		r.err = io.EOF
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	ctx := (flags >> 2) & 3
	if flags&(1<<4) != 0 {
		if ctx, err = r.r.ReadByte(); err != nil {
			r.err = fmt.Errorf("%w: truncated extended ctx", ErrBadTrace)
			return false
		}
	}
	gap, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("%w: truncated record", ErrBadTrace)
		return false
	}
	dpc, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated pc delta", ErrBadTrace)
		return false
	}
	daddr, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated addr delta", ErrBadTrace)
		return false
	}
	r.prevPC = mem.Addr(int64(r.prevPC) + unzigzag(dpc))
	r.prevAddr = mem.Addr(int64(r.prevAddr) + unzigzag(daddr))
	*out = Ref{
		PC:   r.prevPC,
		Addr: r.prevAddr,
		Gap:  gap,
		Ctx:  ctx,
	}
	if flags&1 != 0 {
		out.Kind = Store
	}
	if flags&2 != 0 {
		out.Dep = true
	}
	return true
}

// Err returns nil after a clean end of stream, or the decoding error that
// terminated the reader.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}
