// Package server implements ltexpd: the long-running simulation service
// over the shared runner scheduler (DESIGN.md §14). Clients submit
// experiment jobs (the same specs cmd/ltexp runs), watch progress over
// SSE and fetch reports that are byte-identical to a local ltexp
// invocation — with every job sharing one scheduler and one
// content-addressed cache, so concurrent users sweeping overlapping
// configurations pay for each distinct simulation exactly once.
package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cachedir"
	"repro/internal/runner"
)

// Config assembles a daemon.
type Config struct {
	// Sched is the shared cell scheduler every job runs on (required).
	// Wire the persistent cache to it (Scheduler.SetStore) before
	// serving, exactly as cmd/ltexp does.
	Sched *runner.Scheduler
	// Cache is the persistent cell/trace cache (nil = memory-only: jobs
	// dedup within the process only).
	Cache *cachedir.Dir
	// MaxActiveJobs bounds concurrently running jobs (min/default 1);
	// further submissions queue. The scheduler's weighted admission
	// arbitrates CPU between the active jobs' cells.
	MaxActiveJobs int
	// APIKeys, when non-empty, requires every /v1 request to present one
	// (X-API-Key or Authorization: Bearer). Health endpoints stay open.
	APIKeys []string
	// RatePerSec enables the global token-bucket rate limiter (0 = off);
	// Burst is its capacity (default 2×rate).
	RatePerSec float64
	Burst      float64
	// Logger receives request and lifecycle lines (default: log.Default).
	Logger *log.Logger
}

// Server is the assembled daemon: job manager plus HTTP surface.
type Server struct {
	cfg     Config
	mgr     *Manager
	logger  *log.Logger
	start   time.Time
	ready   atomic.Bool
	handler http.Handler
}

// New assembles a server (not yet listening; mount Handler on an
// http.Server, or use cmd/ltexpd).
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	maxActive := cfg.MaxActiveJobs
	if maxActive < 1 {
		maxActive = 1
	}
	s := &Server{
		cfg:    cfg,
		mgr:    NewManager(cfg.Sched, cfg.Cache, maxActive),
		logger: logger,
		start:  time.Now(),
	}
	s.ready.Store(true)
	s.handler = s.buildHandler()
	return s
}

// Manager exposes the job table (tests and cmd/ltexpd drain it).
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the full middleware-wrapped HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler assembles the route table and the middleware chain
// documented in middleware.go.
func (s *Server) buildHandler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/jobs", s.handleSubmit)
	api.HandleFunc("GET /v1/jobs", s.handleListJobs)
	api.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	api.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	api.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	api.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	api.HandleFunc("GET /v1/stats", s.handleStats)

	var v1 http.Handler = api
	v1 = rateLimit(s.bucket(), v1)
	v1 = auth(s.cfg.APIKeys, v1)

	// Health endpoints sit outside auth and rate limiting: probes and
	// load balancers must never be locked out.
	root := http.NewServeMux()
	root.Handle("/v1/", v1)
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)

	var h http.Handler = root
	h = recoverPanics(s.logger, h)
	h = requestLog(s.logger, h)
	h = requestID(h)
	return h
}

// bucket builds the configured rate limiter (nil when disabled).
func (s *Server) bucket() *tokenBucket {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	burst := s.cfg.Burst
	if burst <= 0 {
		burst = 2 * s.cfg.RatePerSec
	}
	return newTokenBucket(s.cfg.RatePerSec, burst)
}

// Drain takes the server not-ready (readyz → 503), refuses new
// submissions, cancels live jobs and waits for them to resolve. Call
// before http.Server.Shutdown for a graceful stop.
func (s *Server) Drain(ctx context.Context) error {
	s.ready.Store(false)
	return s.mgr.Drain(ctx)
}

// Uptime reports how long the server has been up.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// discard is a logger sink for tests.
var discard = log.New(io.Discard, "", 0)
