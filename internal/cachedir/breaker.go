package cachedir

import (
	"sync"
	"time"
)

// breaker is the degradation circuit behind a Dir (DESIGN.md §15).
// Closed (the normal state), every operation reaches the disk and each
// success resets the consecutive-failure count. After threshold
// consecutive I/O errors the breaker opens: the Dir is degraded,
// memory-only — allowWrite fails fast without touching the disk, while
// reads keep trying (a hit is still a hit, and read outcomes keep
// feeding the failure count). While open, one write per cooldown window
// is let through as a probe; the first probe that succeeds closes the
// breaker and the Dir recovers.
//
// There is no separate half-open state to get stuck in: allowWrite
// claims the probe slot by advancing the retry deadline, so a probe
// that dies without reporting merely delays the next probe by one
// window.
type breaker struct {
	threshold int           // consecutive failures that trip it
	cooldown  time.Duration // delay between probes while open
	now       func() time.Time

	mu        sync.Mutex
	consec    int  // consecutive I/O errors
	open      bool // tripped: degraded, memory-only
	retryAt   time.Time
	trips     uint64
	recovered uint64
}

// failure records one I/O error; crossing the threshold trips the
// breaker.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	if !b.open && b.consec >= b.threshold {
		b.open = true
		b.trips++
		b.retryAt = b.now().Add(b.cooldown)
	}
}

// success records one completed disk operation. A successful write
// while open is a successful probe: the breaker closes.
func (b *breaker) success(write bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec = 0
	if b.open && write {
		b.open = false
		b.recovered++
	}
}

// allowWrite reports whether a write may reach the disk: always while
// closed; while open, one probe per cooldown window.
func (b *breaker) allowWrite() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	now := b.now()
	if now.Before(b.retryAt) {
		return false
	}
	b.retryAt = now.Add(b.cooldown)
	return true
}

// state snapshots the breaker for Counters.
func (b *breaker) state() (degraded bool, trips, recovered uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open, b.trips, b.recovered
}
