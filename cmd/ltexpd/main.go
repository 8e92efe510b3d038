// Command ltexpd serves experiment jobs over HTTP: the same experiment
// ids, scale/seed/benchmark knobs and report bytes as ltexp, behind a
// long-running daemon that shares ONE cell scheduler (and, with
// -cache-dir, one persistent content-addressed cache) across every job
// it ever runs — so concurrent users sweeping overlapping
// configurations pay for each distinct simulation exactly once.
//
// Usage:
//
//	ltexpd -addr :8080 -cache-dir /var/cache/ltexp
//	ltexpd -addr :8080 -parallel 8 -max-jobs 4
//	ltexpd -addr :8080 -api-key K1 -api-key-file keys.txt -rate 50
//
// API (see DESIGN.md §14 for the full surface):
//
//	curl -X POST localhost:8080/v1/jobs -d '{"experiments":["fig8"],"scale":"small"}'
//	curl localhost:8080/v1/jobs/<id>            # status + cell counters
//	curl -N localhost:8080/v1/jobs/<id>/events  # SSE progress stream
//	curl localhost:8080/v1/jobs/<id>/report     # byte-identical to ltexp
//	curl -X DELETE localhost:8080/v1/jobs/<id>  # cancel (queued cells abort)
//	curl localhost:8080/v1/stats
//
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, live jobs are
// cancelled (in-flight cells finish and persist; queued cells abort) and
// the listener shuts down once the job table resolves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		parallel = flag.Int("parallel", 0, "simulation cell workers (0 = GOMAXPROCS)")
		maxJobs  = flag.Int("max-jobs", 2, "jobs allowed to run concurrently (others queue)")
		cacheDir = flag.String("cache-dir", "", "persistent cell/trace cache directory (empty = in-memory only)")
		cacheMod = flag.String("cache", "rw", "persistent cache mode: off|ro|rw")
		cacheCap = flag.String("cache-cap", "0", "persistent cache size cap, e.g. 2G (0 = unlimited, LRU eviction)")
		apiKey   = flag.String("api-key", "", "require this API key on /v1 (repeatable via -api-key-file; empty = open)")
		keyFile  = flag.String("api-key-file", "", "file of accepted API keys, one per line")
		rate     = flag.Float64("rate", 0, "global request rate limit per second (0 = unlimited)")
		burst    = flag.Float64("burst", 0, "rate limiter burst (default 2×rate)")
		drainFor = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for live jobs to resolve")
		readTO   = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout; the SSE route lifts it per-connection")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	)
	showVersion := buildinfo.VersionFlag("ltexpd")
	flag.Parse()
	showVersion()
	logger := log.New(os.Stderr, "ltexpd ", log.LstdFlags)

	mode, err := cachedir.ParseMode(*cacheMod)
	if err != nil {
		logger.Fatal(err)
	}
	capBytes, err := cachedir.ParseSize(*cacheCap)
	if err != nil {
		logger.Fatal(err)
	}
	cdir, err := exp.OpenCache(*cacheDir, mode, capBytes)
	if err != nil {
		// An unusable cache directory is not fatal: the cache is an
		// accelerator, never a dependency (DESIGN.md §15). Serve
		// memory-only (/healthz reports cache "none") rather than
		// refusing to start.
		logger.Printf("cache-dir %s unusable (%v); serving memory-only", *cacheDir, err)
		cdir = nil
	}
	keys, err := loadKeys(*apiKey, *keyFile)
	if err != nil {
		logger.Fatal(err)
	}

	// One scheduler for the daemon's whole lifetime — the cross-job cell
	// dedup is the point of the service. With -cache-dir the in-memory
	// cell cache becomes a write-through L1 over the persistent store,
	// exactly as in cmd/ltexp.
	sched := runner.New(*parallel)
	if cdir != nil {
		sched.SetStore(cdir)
	}
	srv := server.New(server.Config{
		Sched:         sched,
		Cache:         cdir,
		MaxActiveJobs: *maxJobs,
		APIKeys:       keys,
		RatePerSec:    *rate,
		Burst:         *burst,
		Logger:        logger,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds slow-loris request bodies; the SSE handler
		// lifts it per-connection via http.ResponseController, so long
		// streams stay legal.
		ReadTimeout: *readTO,
		IdleTimeout: *idleTO,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("%s listening on %s (parallel=%d, max-jobs=%d, cache=%s)",
		buildinfo.String("ltexpd"), *addr, sched.Parallelism(), *maxJobs, cacheSummary(cdir, *cacheDir, mode))

	select {
	case err := <-errc:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining jobs (timeout %s)", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v (forcing shutdown)", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Print("bye")
}

// loadKeys merges the -api-key flag and the -api-key-file lines.
func loadKeys(inline, file string) ([]string, error) {
	var keys []string
	if inline != "" {
		keys = append(keys, inline)
	}
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("api-key-file: %w", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				keys = append(keys, line)
			}
		}
	}
	return keys, nil
}

// cacheSummary renders the startup log's cache description.
func cacheSummary(cdir *cachedir.Dir, dir string, mode cachedir.Mode) string {
	if cdir == nil {
		return "memory-only"
	}
	return fmt.Sprintf("%s (%s)", dir, mode)
}
