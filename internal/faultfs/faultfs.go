// Package faultfs is the filesystem seam behind the persistent cache:
// an interface over exactly the os calls internal/cachedir and
// internal/atomicfile perform, with two implementations — OS, a direct
// passthrough the production path uses (one interface-method call per
// file operation, nothing else), and Injector, a fault-injection
// wrapper driven by a seeded, scriptable schedule.
//
// The schedule is a list of Rules. Each operation consults the rules in
// order; the first rule whose Op class and Path substring match decides
// the operation's fate: succeed (the rule's After count has not been
// consumed yet, or its seeded probability did not fire), fail with the
// rule's error, or — for writes — perform a short write (the first
// Short bytes land, then the error surfaces: a torn write). Rules make
// the classic storage failures deterministic and reproducible:
//
//	ENOSPC on write N     {Op: OpWrite, After: N, Err: syscall.ENOSPC}
//	EIO on every read     {Op: OpRead, Err: syscall.EIO}
//	torn entry            {Op: OpWrite, Err: syscall.ENOSPC, Short: 40}
//	crash-shaped rename   {Op: OpRename, Err: syscall.EIO}
//	fsync failure         {Op: OpSync, Err: syscall.EIO}
//	dead disk             {Op: OpAny, Err: syscall.EIO}
//
// The Injector always delegates to the real filesystem underneath (a
// short write really leaves Short bytes in the file), so the artifacts
// a fault leaves behind are the artifacts a real fault would leave —
// which is what lets the fault gate (cmd/gatecheck fault) prove the
// cache self-repairs from them. SetRules swaps the live schedule
// atomically, so a harness can kill a "disk" mid-run and later heal it.
package faultfs

import (
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// File is the writable-handle surface atomicfile and cachedir need from
// CreateTemp: sequential writes, fsync, close, and the underlying name
// for the final rename.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem surface of the persistent cache: every os call
// cachedir and atomicfile make, and nothing more. Implementations must
// be safe for concurrent use.
type FS interface {
	ReadFile(name string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
	WalkDir(root string, fn fs.WalkDirFunc) error
	// SyncDir fsyncs a directory so a completed rename survives a crash.
	// Filesystems that reject directory fsync keep whatever durability
	// they have: only the open may fail.
	SyncDir(dir string) error
}

// OS is the production filesystem: direct delegation to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) Chtimes(name string, a, m time.Time) error    { return os.Chtimes(name, a, m) }
func (osFS) WalkDir(root string, fn fs.WalkDirFunc) error { return filepath.WalkDir(root, fn) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync()
	return nil
}

// Op classifies filesystem operations for rule matching.
type Op uint8

const (
	// OpAny matches every operation class.
	OpAny Op = iota
	// OpRead matches ReadFile.
	OpRead
	// OpWrite matches File.Write on handles from CreateTemp.
	OpWrite
	// OpSync matches File.Sync and SyncDir.
	OpSync
	// OpCreate matches CreateTemp.
	OpCreate
	// OpRename matches Rename.
	OpRename
	// OpRemove matches Remove.
	OpRemove
	// OpMkdir matches MkdirAll.
	OpMkdir
	// OpStat matches Stat.
	OpStat
	// OpChtimes matches Chtimes.
	OpChtimes
	// OpWalk matches WalkDir (the walk callback sees the rule's error on
	// the root, the way an unreadable subtree surfaces).
	OpWalk
)

var opNames = [...]string{"any", "read", "write", "sync", "create", "rename", "remove", "mkdir", "stat", "chtimes", "walk"}

// String names the operation class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Rule is one line of a fault schedule.
type Rule struct {
	// Op is the operation class the rule applies to (OpAny = all).
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After lets this many matching operations succeed before the fault
	// arms (0 = armed immediately).
	After int
	// Count bounds how many times the fault fires (0 = forever).
	Count int
	// Prob, when in (0,1), fires the fault on each armed match with this
	// probability, drawn from the Injector's seeded generator (0 or ≥1 =
	// always fire once armed).
	Prob float64
	// Err is the error injected (required; syscall.ENOSPC and
	// syscall.EIO are the usual suspects).
	Err error
	// Short, for OpWrite faults, writes the first Short bytes through to
	// the real file before surfacing Err — a torn write with a real
	// artifact on disk. 0 fails the write outright.
	Short int

	matched int // armed-match counter (owned by the Injector's mu)
	fired   int // faults delivered
}

// Injector wraps a real FS with a scripted fault schedule.
type Injector struct {
	real FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*Rule

	ops      atomic.Uint64 // operations that reached the injector
	injected atomic.Uint64 // faults delivered
}

// NewInjector builds a fault-injecting FS over the real filesystem.
// Faults with Prob draw from a generator seeded with seed, so a
// schedule replays identically.
func NewInjector(seed int64, rules ...Rule) *Injector {
	inj := &Injector{real: OS, rng: rand.New(rand.NewSource(seed))}
	inj.SetRules(rules...)
	return inj
}

// SetRules replaces the live schedule (no rules = transparent
// passthrough). Per-rule counters start fresh.
func (inj *Injector) SetRules(rules ...Rule) {
	rs := make([]*Rule, len(rules))
	for i := range rules {
		r := rules[i]
		rs[i] = &r
	}
	inj.mu.Lock()
	inj.rules = rs
	inj.mu.Unlock()
}

// Ops returns how many operations reached the injector.
func (inj *Injector) Ops() uint64 { return inj.ops.Load() }

// Injected returns how many faults were delivered.
func (inj *Injector) Injected() uint64 { return inj.injected.Load() }

// fault consults the schedule for one operation. It returns the error
// to inject and, for short writes, the byte allowance (shortN < 0 means
// fail outright).
func (inj *Injector) fault(op Op, path string) (err error, shortN int) {
	inj.ops.Add(1)
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		if r.matched++; r.matched <= r.After {
			return nil, -1
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && inj.rng.Float64() >= r.Prob {
			return nil, -1
		}
		r.fired++
		inj.injected.Add(1)
		if op == OpWrite && r.Short > 0 {
			return r.Err, r.Short
		}
		return r.Err, -1
	}
	return nil, -1
}

func (inj *Injector) ReadFile(name string) ([]byte, error) {
	if err, _ := inj.fault(OpRead, name); err != nil {
		return nil, &fs.PathError{Op: "read", Path: name, Err: err}
	}
	return inj.real.ReadFile(name)
}

func (inj *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := inj.fault(OpCreate, dir); err != nil {
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	f, err := inj.real.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inj: inj, f: f}, nil
}

func (inj *Injector) Rename(oldpath, newpath string) error {
	if err, _ := inj.fault(OpRename, newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return inj.real.Rename(oldpath, newpath)
}

func (inj *Injector) Remove(name string) error {
	if err, _ := inj.fault(OpRemove, name); err != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: err}
	}
	return inj.real.Remove(name)
}

func (inj *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := inj.fault(OpMkdir, path); err != nil {
		return &fs.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return inj.real.MkdirAll(path, perm)
}

func (inj *Injector) Stat(name string) (fs.FileInfo, error) {
	if err, _ := inj.fault(OpStat, name); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
	}
	return inj.real.Stat(name)
}

func (inj *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if err, _ := inj.fault(OpChtimes, name); err != nil {
		return &fs.PathError{Op: "chtimes", Path: name, Err: err}
	}
	return inj.real.Chtimes(name, atime, mtime)
}

func (inj *Injector) WalkDir(root string, fn fs.WalkDirFunc) error {
	if err, _ := inj.fault(OpWalk, root); err != nil {
		// Surface the fault the way an unreadable subtree does: through
		// the callback, which decides whether to skip or abort.
		return fn(root, nil, &fs.PathError{Op: "walk", Path: root, Err: err})
	}
	return inj.real.WalkDir(root, fn)
}

func (inj *Injector) SyncDir(dir string) error {
	if err, _ := inj.fault(OpSync, dir); err != nil {
		return &fs.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	return inj.real.SyncDir(dir)
}

// faultFile injects write and sync faults on a handle from CreateTemp.
type faultFile struct {
	inj *Injector
	f   File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	err, short := ff.inj.fault(OpWrite, ff.f.Name())
	if err == nil {
		return ff.f.Write(p)
	}
	werr := &fs.PathError{Op: "write", Path: ff.f.Name(), Err: err}
	if short <= 0 {
		return 0, werr
	}
	if short > len(p) {
		short = len(p)
	}
	n, rerr := ff.f.Write(p[:short]) // the torn artifact really lands
	if rerr != nil {
		return n, rerr
	}
	return n, werr
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.inj.fault(OpSync, ff.f.Name()); err != nil {
		return &fs.PathError{Op: "sync", Path: ff.f.Name(), Err: err}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
func (ff *faultFile) Name() string { return ff.f.Name() }
