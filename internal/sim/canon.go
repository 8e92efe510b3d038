package sim

import "fmt"

// Fingerprint renders the configuration into a canonical cache-key form
// for the experiment cell cache: every field that affects simulation
// results, explicitly enumerated, in a fixed order. Two configurations
// with equal fingerprints must produce identical results; the persistent
// cache (internal/cachedir) relies on this to serve cells across process
// restarts.
//
// Deliberately excluded:
//
//   - Workers: results are byte-identical at any worker count (the §11
//     determinism contract), so a warm cache must hit regardless of how
//     the cold run was parallelized.
//
// The encoding is part of the on-disk cache format: adding a field here
// is a schema change, and semantic changes invisible to these fields
// must bump the content-address version stamp (DESIGN.md §12).
//
// The fingerprint is computed over the *resolved* configuration: zero
// cache configs mean "the paper's" (applyDefaults), and the L2 is
// rendered only when WithL2 actually engages it — so Config{} and an
// explicit PaperL1D() config share one cache entry, as they share one
// result.
func (cfg Config) Fingerprint() string {
	cfg.applyDefaults()
	l2 := "-"
	if cfg.WithL2 {
		l2 = cfg.L2.Fingerprint()
	}
	return fmt.Sprintf("l1{%s},l2{%s},ctx%d,shared=%t",
		cfg.L1.Fingerprint(), l2, cfg.Contexts, cfg.SharedState)
}
