// Package buildinfo is the one place the repo's identity lives: the
// release version, the VCS commit baked in by the go toolchain, and the
// persistent-cache schema stamp (exp.CacheVersion aliases it). Every
// command surfaces it through a -version flag and the daemon reports it
// from /healthz, so a cache directory or a bug report can always be
// matched to the code that produced it.
package buildinfo

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// Version is the human-facing release version of the tools. Bump on
// tagged releases; the -dev suffix marks unreleased builds.
const Version = "0.9.0-dev"

// CacheVersion is the code-version stamp mixed into every persistent
// cache address (cachedir.Options.Version). Cell keys fingerprint every
// *input* that affects a result; this stamp covers everything they
// cannot see — the simulation semantics themselves. Bump it whenever a
// change alters any cell's output for an unchanged key: generator or
// predictor behavior, cache replacement details, result-struct field
// meanings, the gob encoding of a result type, or the trace container
// format. Stale entries are then stranded under the old stamp (and
// eventually evicted) instead of ever being served. See DESIGN.md §12.
// exp2: two-stage prefetch-issue lifecycle (drops cancel, no stale
// merges) and context-banked shared predictor state.
// exp3: convergence's decile cells run the shared coverage driver, which
// feeds early evictions back to the predictor, and return sim.Coverage.
const CacheVersion = "exp3"

// Commit returns the VCS revision the binary was built from (12 hex
// digits, "+dirty" when the tree was modified), or "unknown" for builds
// without embedded VCS metadata (go test binaries, GOFLAGS=-buildvcs=false).
func Commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// String renders the one-line -version output for the named command.
func String(cmd string) string {
	return fmt.Sprintf("%s %s (commit %s, cache %s, %s)", cmd, Version, Commit(), CacheVersion, runtime.Version())
}

// VersionFlag registers the standard -version flag for cmd on the
// default flag set. Call the returned function right after flag.Parse:
// it prints the identity line and exits when the flag was given. Every
// command in cmd/ wires this, so the whole toolset answers -version
// uniformly.
func VersionFlag(cmd string) func() {
	v := flag.Bool("version", false, "print version and exit")
	return func() {
		if *v {
			fmt.Println(String(cmd))
			os.Exit(0)
		}
	}
}
