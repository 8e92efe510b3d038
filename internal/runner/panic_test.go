package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// A panicking cell must fail with a stack-carrying error, not kill the
// process, and must never be memoized: a retry of the same key runs it
// again.
func TestPanicBecomesError(t *testing.T) {
	s := New(2)
	calls := 0
	cell := Cell{Key: "boom", Run: func() (any, error) {
		calls++
		if calls == 1 {
			panic("cell exploded")
		}
		return "recovered", nil
	}}
	_, err := s.Do(context.Background(), cell)
	if err == nil {
		t.Fatal("panicking cell returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError in chain", err)
	}
	if pe.Value != "cell exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panic_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
	var ce *cellError
	if !errors.As(err, &ce) || ce.key != "boom" {
		t.Fatalf("err = %v, want cell attribution %q", err, "boom")
	}

	// Never memoized: the retry executes and succeeds.
	v, err := s.Do(context.Background(), cell)
	if err != nil || v != "recovered" {
		t.Fatalf("retry = %v, %v; want recovered", v, err)
	}
	if calls != 2 {
		t.Fatalf("cell ran %d times, want 2", calls)
	}
	if st := s.Stats(); st.Executed != 2 {
		t.Fatalf("Executed = %d, want 2", st.Executed)
	}
}

// Concurrent waiters on a panicking cell all receive the error; none
// hang, none crash, and the key stays computable afterwards. Run with
// -race in CI.
func TestPanicWithConcurrentWaiters(t *testing.T) {
	s := New(4)
	const waiters = 16
	release := make(chan struct{})
	cell := Cell{Key: "shared-boom", Run: func() (any, error) {
		<-release
		panic(errors.New("shared explosion"))
	}}
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Do(context.Background(), cell)
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("waiter %d: err = %v, want *PanicError", i, err)
		}
	}
	// The key was un-published: a fresh submission runs again.
	v, err := s.Do(context.Background(), Cell{Key: "shared-boom", Run: func() (any, error) { return 7, nil }})
	if err != nil || v != 7 {
		t.Fatalf("post-panic submission = %v, %v", v, err)
	}
}

// A panicking cell inside a Map batch fails the batch but leaves the
// scheduler fully usable; sibling cells that completed stay cached.
func TestPanicInMapFailsBatchOnly(t *testing.T) {
	s := New(2)
	cells := []Cell{
		{Key: "ok-1", Run: func() (any, error) { return 1, nil }},
		{Key: "map-boom", Run: func() (any, error) { panic("mid-batch") }},
		{Key: "ok-2", Run: func() (any, error) { return 2, nil }},
	}
	if _, err := s.Map(context.Background(), cells); err == nil {
		t.Fatal("batch with panicking cell succeeded")
	}
	// Scheduler still serves new work.
	v, err := s.Do(context.Background(), Cell{Key: "after", Run: func() (any, error) { return "alive", nil }})
	if err != nil || v != "alive" {
		t.Fatalf("scheduler dead after panic: %v, %v", v, err)
	}
}

// A panic result is never persisted to an attached store.
func TestPanicNeverPersisted(t *testing.T) {
	s := New(1)
	store := newMemStore()
	s.SetStore(store)
	_, err := s.Do(context.Background(), Cell{Key: "p", Codec: GobCodec{}, Run: func() (any, error) { panic("no persist") }})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if len(store.m) != 0 {
		t.Fatalf("store has %d entries after panic, want 0", len(store.m))
	}
	if st := s.Stats(); st.Persisted != 0 {
		t.Fatalf("Persisted = %d, want 0", st.Persisted)
	}
}
