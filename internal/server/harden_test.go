package server

import (
	"encoding/json"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/cachedir"
	"repro/internal/faultfs"
)

// A cache whose breaker trips shows as degraded in /healthz, and
// /v1/stats carries the degradation counters.
func TestDegradedCacheHealthAndStats(t *testing.T) {
	inj := faultfs.NewInjector(1)
	cache, err := cachedir.Open(t.TempDir(), cachedir.Options{Version: "v1", FS: inj, FailThreshold: 1, RetryAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, nil, Config{Cache: cache})
	h := s.Handler()

	healthCache := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var out struct {
			Cache string `json:"cache"`
		}
		json.Unmarshal(rec.Body.Bytes(), &out)
		return out.Cache
	}
	if got := healthCache(); got != "ok" {
		t.Fatalf("healthz cache = %q, want ok", got)
	}

	// Kill the disk and trip the breaker with one faulted write.
	inj.SetRules(faultfs.Rule{Op: faultfs.OpAny, Err: syscall.EIO})
	cache.Put("trip", []byte("v"))
	if !cache.Degraded() {
		t.Fatal("breaker did not trip")
	}
	if got := healthCache(); got != "degraded" {
		t.Fatalf("healthz cache = %q, want degraded", got)
	}

	// /v1/stats carries the degradation counters.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats struct {
		Cache *cachedir.Counters `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || stats.Cache == nil {
		t.Fatalf("stats: %v %q", err, rec.Body.String())
	}
	if !stats.Cache.Degraded || stats.Cache.IOErrors == 0 || stats.Cache.Trips != 1 {
		t.Fatalf("stats counters = %+v, want degraded with a trip", stats.Cache)
	}
}

// Without a cache, /healthz reports cache "none".
func TestHealthzCacheNone(t *testing.T) {
	s := newTestServer(t, nil, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var out struct {
		Cache string `json:"cache"`
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	if out.Cache != "none" {
		t.Fatalf("healthz cache = %q, want none", out.Cache)
	}
}
