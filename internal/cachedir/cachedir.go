// Package cachedir implements the persistent, content-addressed cache
// backing warm-start experiment runs (DESIGN.md §12). One directory
// holds two tiers:
//
//   - results/ — checksummed entries holding encoded simulation-cell
//     results, the runner.CacheStore behind the scheduler's in-memory
//     map. Entries are addressed by sha256 over (address-schema tag,
//     code-version stamp, cell key); the cell key is itself a canonical
//     fingerprint of everything that affects the result (cell kind,
//     resolved sim.Config / predictor parameters, stream identity), so
//     equal addresses imply equal results.
//   - traces/ — materialized trace stores (the LTCX container of
//     internal/trace), addressed by the sha256 of their own serialized
//     bytes and re-hashed against that address whenever one is opened.
//     Identical streams reached through different cell keys
//     deduplicate to one file, and replay is mmap-backed: a preset is
//     generated once per machine, ever.
//
// The cache is an accelerator, never a dependency: every failure mode —
// absent entry, truncated or checksum-mismatched payload, unsupported
// format version, a file evicted between index and open — degrades to a
// miss, and the recomputed value is re-persisted over the bad entry.
// Writes are crash-safe (temp file + fsync + atomic rename, see
// internal/atomicfile) so a killed run can never leave a torn entry a
// later open would trust. A byte budget (Options.MaxBytes) is enforced
// by evicting least-recently-used entries, oldest access time first.
//
// Real I/O faults — ENOSPC, EIO, failed renames — degrade too, through
// a circuit breaker (DESIGN.md §15): after Options.FailThreshold
// consecutive disk errors the Dir trips into memory-only degraded mode,
// where writes stop immediately (no disk traffic) while reads keep
// trying; after Options.RetryAfter one write is let through as a probe,
// and a successful probe closes the breaker. Every filesystem call goes
// through the faultfs.FS seam (Options.FS), so the fault-injection
// harness exercises exactly the code production runs.
//
// Multiple processes may share one cache directory: entries are
// immutable once written, renames are atomic, and concurrent writers of
// the same address produce identical bytes by construction.
package cachedir

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultfs"
	"repro/internal/trace"
)

// Mode selects how a cache directory is used. The zero value is
// ReadWrite — opening a cache means using it; Off exists so CLI flag
// plumbing can disable the cache uniformly (Open returns a nil *Dir,
// and every method is nil-receiver-safe, reporting misses).
type Mode int

const (
	// ReadWrite serves hits and persists new results (the default).
	ReadWrite Mode = iota
	// ReadOnly serves hits but never writes, touches access times, or
	// evicts — for sharing a cache that another user or job owns.
	ReadOnly
	// Off disables the cache entirely.
	Off
)

// String renders the mode as its flag spelling.
func (m Mode) String() string {
	switch m {
	case ReadWrite:
		return "rw"
	case ReadOnly:
		return "ro"
	case Off:
		return "off"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -cache flag values off|ro|rw.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "rw":
		return ReadWrite, nil
	case "ro":
		return ReadOnly, nil
	case "off":
		return Off, nil
	}
	return Off, fmt.Errorf("cachedir: unknown cache mode %q (off|ro|rw)", s)
}

// ParseSize parses a human byte size for the -cache-cap flag: a decimal
// number with an optional K/M/G/T suffix (B/iB spellings accepted), all
// powers of 1024. Empty or "0" means unlimited.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" || t == "0" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"TIB", 1 << 40}, {"TB", 1 << 40}, {"T", 1 << 40},
	} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.mult
			t = t[:len(t)-len(suf.text)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("cachedir: bad size %q", s)
	}
	return n * mult, nil
}

// Degradation defaults (see Options).
const (
	// DefaultFailThreshold is how many consecutive I/O errors trip the
	// breaker when Options.FailThreshold is zero.
	DefaultFailThreshold = 5
	// DefaultRetryAfter is the probe cooldown when Options.RetryAfter is
	// zero.
	DefaultRetryAfter = 15 * time.Second
)

// Options configure Open.
type Options struct {
	// Mode is the access mode (zero value: ReadWrite).
	Mode Mode
	// MaxBytes caps the directory's total size; exceeding it evicts
	// entries by least-recent access time until the total is back under
	// (with headroom). 0 = unlimited. Ignored in ReadOnly mode.
	MaxBytes int64
	// Version is the code-version stamp mixed into every result address:
	// any change to simulation semantics that is not visible in cell keys
	// must ship with a bumped stamp, which strands (and eventually
	// evicts) all prior entries instead of serving stale results. The
	// experiment harness passes exp.CacheVersion.
	Version string
	// FS is the filesystem seam every disk operation goes through (nil =
	// the real filesystem). The fault-injection harness passes a
	// faultfs.Injector here.
	FS faultfs.FS
	// FailThreshold is how many consecutive I/O errors trip the Dir into
	// memory-only degraded mode (0 = DefaultFailThreshold).
	FailThreshold int
	// RetryAfter is how long a tripped Dir waits before letting one
	// write probe the disk again (0 = DefaultRetryAfter).
	RetryAfter time.Duration
}

// Counters snapshot the cache-traffic statistics (ltexp surfaces them in
// the -json envelope and the report footer; ltexpd in /v1/stats).
type Counters struct {
	// Results tier.
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Puts       uint64 `json:"puts"`
	BadEntries uint64 `json:"bad_entries,omitempty"` // corrupt/truncated, removed and recomputed
	// Traces tier.
	TraceHits   uint64 `json:"trace_hits"`
	TraceMisses uint64 `json:"trace_misses"`
	TracePuts   uint64 `json:"trace_puts"`
	// Eviction.
	EvictedEntries  uint64 `json:"evicted_entries,omitempty"`
	EvictedBytes    uint64 `json:"evicted_bytes,omitempty"`
	EvictWalkErrors uint64 `json:"evict_walk_errors,omitempty"` // unreadable entries skipped by eviction walks
	// Degradation (DESIGN.md §15).
	IOErrors  uint64 `json:"io_errors,omitempty"` // real disk faults (ENOSPC, EIO, …), not plain misses
	Degraded  bool   `json:"degraded,omitempty"`  // breaker open: memory-only, writes stopped
	Trips     uint64 `json:"trips,omitempty"`     // times the breaker opened
	Recovered uint64 `json:"recovered,omitempty"` // times a probe write closed it again
}

// Dir is an open cache directory. All methods are safe for concurrent
// use by any number of goroutines, and nil-receiver-safe (a nil *Dir is
// the disabled cache: every lookup misses, every write is dropped).
type Dir struct {
	root     string
	mode     Mode
	maxBytes int64
	version  string
	fsys     faultfs.FS
	brk      breaker

	size    atomic.Int64 // approximate on-disk bytes (exact after each eviction walk)
	evictMu sync.Mutex   // one eviction walk at a time

	hits, misses, puts, bad          atomic.Uint64
	traceHits, traceMisses, tracePut atomic.Uint64
	evictedN, evictedB               atomic.Uint64
	ioErr, walkErr                   atomic.Uint64
}

const (
	resultsSub = "results"
	tracesSub  = "traces"

	// addrSchema tags the address computation itself; bumping it (or
	// Options.Version) strands every existing entry.
	addrSchema = "ltc1"

	// Result entry container: magic, format version, sha256 of the
	// payload, payload.
	entryMagic    = "LTRE"
	entryVersion  = 1
	entryHeadLen  = 4 + 1 + sha256.Size
	evictHeadroom = 10 // evict down to (100-evictHeadroom)% of MaxBytes
)

// Open prepares a cache directory. Mode Off returns (nil, nil): the nil
// *Dir is the disabled cache. ReadWrite creates the directory (plus a
// CACHEDIR.TAG so backup tools skip it) and scans it once to seed the
// size accounting; ReadOnly opens whatever is there without writing.
func Open(root string, opts Options) (*Dir, error) {
	if opts.Mode == Off {
		return nil, nil
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	d := &Dir{root: root, mode: opts.Mode, maxBytes: opts.MaxBytes, version: opts.Version, fsys: fsys}
	d.brk.threshold = opts.FailThreshold
	if d.brk.threshold <= 0 {
		d.brk.threshold = DefaultFailThreshold
	}
	d.brk.cooldown = opts.RetryAfter
	if d.brk.cooldown <= 0 {
		d.brk.cooldown = DefaultRetryAfter
	}
	d.brk.now = time.Now
	if opts.Mode == ReadWrite {
		for _, sub := range []string{resultsSub, tracesSub} {
			if err := fsys.MkdirAll(filepath.Join(root, sub), 0o777); err != nil {
				return nil, fmt.Errorf("cachedir: %w", err)
			}
		}
		tag := filepath.Join(root, "CACHEDIR.TAG")
		if _, err := fsys.Stat(tag); err != nil {
			atomicfile.WriteFileBytesFS(fsys, tag, []byte("Signature: 8a477f597d28d172789f06886806bc55\n# This directory holds regenerable ltexp simulation results (see DESIGN.md §12).\n"))
		}
		d.size.Store(d.walkSize())
		d.maybeEvict()
	}
	return d, nil
}

// Root returns the directory path ("" for the disabled cache).
func (d *Dir) Root() string {
	if d == nil {
		return ""
	}
	return d.root
}

// Mode returns the access mode (Off for the disabled cache).
func (d *Dir) Mode() Mode {
	if d == nil {
		return Off
	}
	return d.mode
}

// Degraded reports whether the breaker is open: the Dir is in
// memory-only degraded mode, dropping writes while reads keep trying.
// Health endpoints surface this.
func (d *Dir) Degraded() bool {
	if d == nil {
		return false
	}
	deg, _, _ := d.brk.state()
	return deg
}

// Counters returns a snapshot of the traffic statistics.
func (d *Dir) Counters() Counters {
	if d == nil {
		return Counters{}
	}
	deg, trips, rec := d.brk.state()
	return Counters{
		Hits: d.hits.Load(), Misses: d.misses.Load(), Puts: d.puts.Load(), BadEntries: d.bad.Load(),
		TraceHits: d.traceHits.Load(), TraceMisses: d.traceMisses.Load(), TracePuts: d.tracePut.Load(),
		EvictedEntries: d.evictedN.Load(), EvictedBytes: d.evictedB.Load(), EvictWalkErrors: d.walkErr.Load(),
		IOErrors: d.ioErr.Load(), Degraded: deg, Trips: trips, Recovered: rec,
	}
}

// Size returns the current approximate on-disk byte total.
func (d *Dir) Size() int64 {
	if d == nil {
		return 0
	}
	return d.size.Load()
}

// ioFailure records a real disk fault (as opposed to a plain miss)
// against the breaker.
func (d *Dir) ioFailure(error) {
	d.ioErr.Add(1)
	d.brk.failure()
}

// ioOK records a successful disk operation; a successful write closes
// an open breaker (probe recovery).
func (d *Dir) ioOK(write bool) {
	d.brk.success(write)
}

// addr computes the content address of a cell key: sha256 over the
// address schema tag, the code-version stamp and the key. Hex-encoded,
// so it is also a safe file name.
func (d *Dir) addr(key string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|", addrSchema, d.version)
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

// resultPath maps a result address to its file, fanned out over 256
// two-hex-digit subdirectories to keep directory sizes sane.
func (d *Dir) resultPath(addr string) string {
	return filepath.Join(d.root, resultsSub, addr[:2], addr+".ltre")
}

// tracePath maps a trace digest to its store file.
func (d *Dir) tracePath(digest string) string {
	return filepath.Join(d.root, tracesSub, digest[:2], digest+".ltcx")
}

// Get implements runner.CacheStore: it returns the payload stored under
// key, verifying the container checksum. A corrupt or truncated entry is
// removed (in ReadWrite mode) and reported as a miss — the caller
// recomputes and repairs it. A real read fault (EIO, not absence) is a
// miss too, counted against the breaker. Hits refresh the file's access
// time so LRU eviction sees live entries as live even on
// relatime/noatime mounts.
func (d *Dir) Get(key string) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	path := d.resultPath(d.addr(key))
	raw, err := d.fsys.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			d.ioFailure(err)
		}
		d.misses.Add(1)
		return nil, false
	}
	d.ioOK(false)
	payload, ok := decodeEntry(raw)
	if !ok {
		d.bad.Add(1)
		d.misses.Add(1)
		d.removeBad(path, int64(len(raw)))
		return nil, false
	}
	d.touch(path)
	d.hits.Add(1)
	return payload, true
}

// Put implements runner.CacheStore: it persists the payload under key,
// checksummed and atomically written. Best-effort — a read-only cache,
// a degraded (breaker-open) cache or an I/O error just reports false.
func (d *Dir) Put(key string, data []byte) bool {
	if d == nil || d.mode != ReadWrite {
		return false
	}
	if !d.brk.allowWrite() {
		return false // degraded: memory-only, no disk traffic
	}
	path := d.resultPath(d.addr(key))
	if err := d.fsys.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		d.ioFailure(err)
		return false
	}
	var prev int64
	if fi, err := d.fsys.Stat(path); err == nil {
		prev = fi.Size() // overwriting (repairing) an existing entry
	}
	ent := encodeEntry(data)
	if err := atomicfile.WriteFileBytesFS(d.fsys, path, ent); err != nil {
		d.ioFailure(err)
		return false
	}
	d.ioOK(true)
	d.size.Add(int64(len(ent)) - prev)
	d.puts.Add(1)
	d.maybeEvict()
	return true
}

// encodeEntry wraps a payload in the checksummed container.
func encodeEntry(payload []byte) []byte {
	out := make([]byte, 0, entryHeadLen+len(payload))
	out = append(out, entryMagic...)
	out = append(out, entryVersion)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// decodeEntry validates the container and returns the payload.
func decodeEntry(raw []byte) ([]byte, bool) {
	if len(raw) < entryHeadLen || string(raw[:4]) != entryMagic || raw[4] != entryVersion {
		return nil, false
	}
	payload := raw[entryHeadLen:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(raw[5:entryHeadLen]) {
		return nil, false
	}
	return payload, true
}

// ErrDegraded marks write refusals from an open breaker: the disk is
// known-bad and the Dir is running memory-only until a probe recovers.
var ErrDegraded = errors.New("cachedir: degraded (writes suspended until re-probe)")

// AddTrace persists a materialized trace store under the sha256 of its
// serialized bytes and returns that digest (the locator the results tier
// stores as the cell's encoded value). An already-present digest is
// reused without rewriting — identical streams reached through different
// cell keys share one file. In ReadOnly mode only reuse is possible; a
// digest that is not already present returns an error (the caller then
// simply skips persisting). A degraded cache refuses new writes the
// same way, without touching the disk — callers must treat any AddTrace
// error as "skip persisting", never as a cell failure.
func (d *Dir) AddTrace(m *trace.Materialized) (string, error) {
	if d == nil {
		return "", fmt.Errorf("cachedir: cache disabled")
	}
	digest := traceDigest(m)
	path := d.tracePath(digest)
	if _, err := d.fsys.Stat(path); err == nil {
		d.touch(path)
		return digest, nil
	}
	if d.mode != ReadWrite {
		return "", fmt.Errorf("cachedir: read-only cache has no trace %s", digest[:12])
	}
	if !d.brk.allowWrite() {
		return "", ErrDegraded
	}
	if err := d.fsys.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		d.ioFailure(err)
		return "", err
	}
	if err := atomicfile.WriteFileFS(d.fsys, path, func(w io.Writer) error {
		_, err := m.WriteTo(w)
		return err
	}); err != nil {
		d.ioFailure(err)
		return "", err
	}
	d.ioOK(true)
	if fi, err := d.fsys.Stat(path); err == nil {
		d.size.Add(fi.Size())
	}
	d.tracePut.Add(1)
	d.maybeEvict()
	return digest, nil
}

// traceDigest is a store's content address: the hex sha256 of its
// serialized bytes.
func traceDigest(m *trace.Materialized) string {
	h := sha256.New()
	m.WriteTo(h) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// OpenTrace maps a trace store previously persisted by AddTrace and
// verifies it against its address: the store must hash to digest. A
// store that fails the container's structural validation (truncated
// data, inconsistent chunk index) or the hash (bit rot inside the chunk
// data, which parses fine but replays a different stream) is removed and
// reported as a miss, so the stream is re-materialized and the entry
// repaired. An absent store is a plain miss, and any other open failure
// is a miss counted against the breaker.
func (d *Dir) OpenTrace(digest string) (*trace.Materialized, bool) {
	if d == nil {
		d.traceMissInc()
		return nil, false
	}
	if len(digest) != 2*sha256.Size || strings.ContainsAny(digest, "/\\.") {
		d.traceMisses.Add(1)
		return nil, false
	}
	path := d.tracePath(digest)
	m, err := trace.OpenStore(path)
	if err == nil && traceDigest(m) != digest {
		m.Close()
		err = fmt.Errorf("%w: %s does not hash to its address", trace.ErrBadTrace, path)
	}
	if err != nil {
		switch {
		case errors.Is(err, trace.ErrBadTrace):
			// The file exists but is damaged: poisoned, not absent.
			if fi, statErr := d.fsys.Stat(path); statErr == nil {
				d.bad.Add(1)
				d.removeBad(path, fi.Size())
			}
		case errors.Is(err, fs.ErrNotExist):
			// Absent, or evicted since the caller learned the digest. A
			// concurrent AddTrace may already have put a fresh, valid
			// copy back; that is no reason to delete it.
		default:
			d.ioFailure(err)
		}
		d.traceMisses.Add(1)
		return nil, false
	}
	d.touch(path)
	d.traceHits.Add(1)
	return m, true
}

// traceMissInc is the nil-receiver-safe trace-miss counter bump.
func (d *Dir) traceMissInc() {
	if d != nil {
		d.traceMisses.Add(1)
	}
}

// removeBad deletes a corrupt entry (ReadWrite mode only) so the next
// writer repairs it instead of tripping over it forever.
func (d *Dir) removeBad(path string, size int64) {
	if d.mode != ReadWrite {
		return
	}
	if d.fsys.Remove(path) == nil {
		d.size.Add(-size)
	}
}

// touch refreshes a file's access time (best-effort; skipped in
// ReadOnly mode and while degraded — it is a metadata write) so
// LRU-by-atime eviction tracks real use even on mounts that suppress
// atime updates.
func (d *Dir) touch(path string) {
	if d.mode != ReadWrite || d.Degraded() {
		return
	}
	if fi, err := d.fsys.Stat(path); err == nil {
		d.fsys.Chtimes(path, time.Now(), fi.ModTime())
	}
}

// walkSize sums the sizes of all entry files.
func (d *Dir) walkSize() int64 {
	var total int64
	for _, f := range d.listEntries() {
		total += f.size
	}
	return total
}

// entryFile is one cache file during an eviction walk.
type entryFile struct {
	path  string
	size  int64
	atime time.Time
}

// listEntries walks both tiers and returns every entry file. Staging
// files (a writer's temp file before its rename publishes it) are not
// entries: evicting one would fail that write. Unreadable subtrees are
// skipped (eviction is best-effort) but counted, so an operator can see
// a walk that silently covers less than the whole store.
func (d *Dir) listEntries() []entryFile {
	var out []entryFile
	for _, sub := range []string{resultsSub, tracesSub} {
		d.fsys.WalkDir(filepath.Join(d.root, sub), func(path string, de fs.DirEntry, err error) error {
			if err != nil {
				if !errors.Is(err, fs.ErrNotExist) {
					d.walkErr.Add(1)
				}
				return nil
			}
			if de.IsDir() || !isEntryName(de.Name()) {
				return nil
			}
			fi, err := de.Info()
			if err != nil {
				if !errors.Is(err, fs.ErrNotExist) {
					d.walkErr.Add(1)
				}
				return nil
			}
			out = append(out, entryFile{path: path, size: fi.Size(), atime: fileAtime(fi)})
			return nil
		})
	}
	return out
}

// isEntryName reports whether name is a published entry file rather than
// a staging file (atomicfile's "<entry>.tmp*").
func isEntryName(name string) bool {
	ext := filepath.Ext(name)
	return ext == ".ltre" || ext == ".ltcx"
}

// maybeEvict enforces the byte budget: when the directory exceeds
// MaxBytes, entries are removed oldest-access-first until the total is
// below the budget minus headroom (so each overflow triggers one walk,
// not one per Put). A single walk runs at a time; concurrent Puts during
// a walk are picked up by the next one. A degraded Dir skips eviction:
// the disk is known-bad and nothing new is being written to it.
func (d *Dir) maybeEvict() {
	if d.mode != ReadWrite || d.maxBytes <= 0 || d.size.Load() <= d.maxBytes || d.Degraded() {
		return
	}
	d.evictMu.Lock()
	defer d.evictMu.Unlock()
	files := d.listEntries()
	var total int64
	for _, f := range files {
		total += f.size
	}
	target := d.maxBytes - d.maxBytes*evictHeadroom/100
	if total > d.maxBytes {
		sort.Slice(files, func(i, j int) bool { return files[i].atime.Before(files[j].atime) })
		for _, f := range files {
			if total <= target {
				break
			}
			if d.fsys.Remove(f.path) == nil {
				total -= f.size
				d.evictedN.Add(1)
				d.evictedB.Add(uint64(f.size))
			}
		}
	}
	d.size.Store(total)
}
