package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCtxCancelledBeforeRun(t *testing.T) {
	s := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	if _, err := s.Do(ctx, countingCell("k", &runs, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("cell ran %d times under a cancelled context", runs.Load())
	}
	// Cancellation must not poison the key: a live submission recomputes.
	v, err := s.Do(context.Background(), countingCell("k", &runs, 1))
	if err != nil || v.(int) != 1 {
		t.Fatalf("resubmission = %v, %v", v, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("runs = %d want 1", runs.Load())
	}
}

// TestCancelledBodyIsNotMemoized pins that a cell whose body fails with
// a context error — its job was cancelled while it ran, so its nested Do
// on the job's context gave up — is un-published like a panic, not
// memoized: a later submission of the key on a live context recomputes
// instead of retrying the dead entry forever.
func TestCancelledBodyIsNotMemoized(t *testing.T) {
	s := New(2)
	var runs atomic.Int64
	outer := func(ctx context.Context, cancelMidBody func()) Cell {
		return Cell{Key: "outer", Run: func() (any, error) {
			cancelMidBody()
			return s.Do(ctx, countingCell("inner", &runs, 7))
		}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := s.Do(ctx, outer(ctx, cancel)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	live := context.Background()
	v, err := s.Do(live, outer(live, func() {}))
	if err != nil || v.(int) != 7 {
		t.Fatalf("resubmission = %v, %v", v, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("inner runs = %d want 1", runs.Load())
	}
	if st := s.Stats(); st.Executed != 3 {
		t.Fatalf("Executed = %d want 3 (cancelled outer, then outer and inner)", st.Executed)
	}
}

// TestMapCtxCancelStopsQueuedCells pins the daemon's cancellation
// contract: cancelling a batch mid-flight stops every queued-but-
// unstarted cell, while the in-flight cell runs to completion and stays
// cached. Run under -race in CI.
func TestMapCtxCancelStopsQueuedCells(t *testing.T) {
	s := New(1) // one worker: cell 0 in flight, the rest queued
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	cells := make([]Cell, 64)
	cells[0] = Cell{Key: "c0", Run: func() (any, error) {
		close(started)
		<-release
		runs.Add(1)
		return 0, nil
	}}
	for i := 1; i < len(cells); i++ {
		cells[i] = countingCell(fmt.Sprintf("c%d", i), &runs, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Map(ctx, cells)
		done <- err
	}()
	<-started
	cancel()
	release <- struct{}{}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Map err = %v, want context.Canceled", err)
	}
	// Only the in-flight cell may have executed.
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d cells ran after cancellation, want 1 (the in-flight one)", got)
	}
	// The completed cell is cached; the abandoned ones recompute cleanly.
	vals, err := s.Map(context.Background(), cells[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
	if st := s.Stats(); st.Executed != 8 {
		t.Fatalf("Executed = %d want 8 (c0 cached from the cancelled batch)", st.Executed)
	}
}

// TestAcquireCancelledWhileQueued pins that a cell parked in the
// admission queue aborts promptly when its context fires, instead of
// waiting for the token a long-running cell holds.
func TestAcquireCancelledWhileQueued(t *testing.T) {
	s := New(1)
	started := make(chan struct{})
	release := make(chan struct{})
	hog := []Cell{{Key: "hog", Run: func() (any, error) {
		close(started)
		<-release
		return 1, nil
	}}}
	hogDone := make(chan error, 1)
	go func() {
		_, err := s.Map(context.Background(), hog)
		hogDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	var runs atomic.Int64
	go func() {
		_, err := s.Map(ctx, []Cell{countingCell("q", &runs, 1)})
		queuedDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the admission wait
	cancel()
	select {
	case err := <-queuedDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued cell err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued cell did not abort its admission wait")
	}
	if runs.Load() != 0 {
		t.Fatalf("queued cell ran despite cancellation")
	}
	release <- struct{}{}
	if err := <-hogDone; err != nil {
		t.Fatal(err)
	}
}

// TestDoCtxWaiterCancelled pins that a waiter on an in-flight cell stops
// waiting when its own context fires, while the owner's computation
// completes and stays cached.
func TestDoCtxWaiterCancelled(t *testing.T) {
	s := New(2)
	started := make(chan struct{})
	release := make(chan struct{})
	cell := Cell{Key: "slow", Run: func() (any, error) {
		close(started)
		<-release
		return 7, nil
	}}
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		if v, err := s.Do(context.Background(), cell); err != nil || v.(int) != 7 {
			t.Errorf("owner got %v, %v", v, err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, cell)
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not observe its cancellation")
	}
	release <- struct{}{}
	<-ownerDone
	// Result stayed cached.
	if v, err := s.Do(context.Background(), cell); err != nil || v.(int) != 7 {
		t.Fatalf("cached value = %v, %v", v, err)
	}
	if st := s.Stats(); st.Executed != 1 {
		t.Fatalf("Executed = %d want 1", st.Executed)
	}
}

func TestMapCtxCellErrorBeatsCancellation(t *testing.T) {
	s := New(1)
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	cells := []Cell{
		{Key: "bad", Run: func() (any, error) { cancel(); return nil, boom }},
		{Key: "never", Run: func() (any, error) { return 1, nil }},
	}
	_, err := s.Map(ctx, cells)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cell error to take precedence", err)
	}
}
