package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func countingCell(key string, n *atomic.Int64, v int) Cell {
	return Cell{Key: key, Run: func() (any, error) {
		n.Add(1)
		return v, nil
	}}
}

func TestDoMemoizes(t *testing.T) {
	s := New(4)
	var runs atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := s.Do(context.Background(), countingCell("k", &runs, 42))
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 42 {
			t.Fatalf("v = %v", v)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d want 1", runs.Load())
	}
	st := s.Stats()
	if st.Submitted != 5 || st.Executed != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.8 {
		t.Errorf("hit rate = %v want 0.8", got)
	}
}

func TestDoEmptyKey(t *testing.T) {
	s := New(1)
	if _, err := s.Do(context.Background(), Cell{Run: func() (any, error) { return 1, nil }}); err == nil {
		t.Error("empty key must error")
	}
}

func TestMapOrderedResults(t *testing.T) {
	s := New(8)
	const n = 100
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Run: func() (any, error) { return i * i, nil }}
	}
	vals, err := s.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i*i {
			t.Fatalf("vals[%d] = %v want %d", i, v, i*i)
		}
	}
}

// TestMapDeterministic checks the ordered reduction: any parallelism
// produces identical result slices.
func TestMapDeterministic(t *testing.T) {
	build := func() []Cell {
		cells := make([]Cell, 64)
		for i := range cells {
			i := i
			cells[i] = Cell{Key: fmt.Sprintf("d%d", i%16), Run: func() (any, error) { return i % 16, nil }}
		}
		return cells
	}
	want, err := New(1).Map(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8, 32} {
		got, err := New(par).Map(context.Background(), build())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: vals[%d] = %v want %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestMapDedupesWithinBatch(t *testing.T) {
	s := New(8)
	var runs atomic.Int64
	cells := make([]Cell, 32)
	for i := range cells {
		cells[i] = countingCell("same", &runs, 7)
	}
	vals, err := s.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d want 1", runs.Load())
	}
	for i, v := range vals {
		if v.(int) != 7 {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
	st := s.Stats()
	if st.Executed != 1 || st.Hits != 31 || st.Submitted != 32 {
		t.Errorf("stats = %+v", st)
	}
}

var errBoom = errors.New("boom")

// TestErrorPropagation: a failing cell aborts the batch, its error is
// reported with the cell key, and (at parallelism 1) cells after it are
// never executed.
func TestErrorPropagation(t *testing.T) {
	s := New(1)
	var ran atomic.Int64
	cells := []Cell{
		countingCell("a", &ran, 1),
		{Key: "bad", Run: func() (any, error) { return nil, errBoom }},
		countingCell("b", &ran, 2),
		countingCell("c", &ran, 3),
	}
	_, err := s.Map(context.Background(), cells)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v want wrapped errBoom", err)
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error %q does not name the failing cell", err)
	}
	if ran.Load() != 1 {
		t.Errorf("cells after the failure ran: %d executions", ran.Load())
	}
	st := s.Stats()
	if st.Executed != 2 { // "a" and "bad"
		t.Errorf("executed = %d want 2", st.Executed)
	}
}

// TestErrorCached: a deterministic failure is memoized like a value.
func TestErrorCached(t *testing.T) {
	s := New(2)
	var runs atomic.Int64
	bad := Cell{Key: "bad", Run: func() (any, error) {
		runs.Add(1)
		return nil, errBoom
	}}
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), bad); !errors.Is(err, errBoom) {
			t.Fatalf("err = %v", err)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("failing cell ran %d times", runs.Load())
	}
}

// TestNestedDo: a cell may submit sub-cells inline (the timing cells
// resolve their warm-up instruction counts this way).
func TestNestedDo(t *testing.T) {
	s := New(2)
	var inner atomic.Int64
	outer := func(key string) Cell {
		return Cell{Key: key, Run: func() (any, error) {
			v, err := s.Do(context.Background(), countingCell("shared-inner", &inner, 10))
			if err != nil {
				return nil, err
			}
			return v.(int) + 1, nil
		}}
	}
	vals, err := s.Map(context.Background(), []Cell{outer("o1"), outer("o2"), outer("o3")})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != 11 {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
	if inner.Load() != 1 {
		t.Errorf("inner ran %d times", inner.Load())
	}
}

// TestNestedErrorSingleWrap: a failure inside a nested cell keeps the
// innermost attribution and is not re-wrapped by every outer cell.
func TestNestedErrorSingleWrap(t *testing.T) {
	s := New(1)
	outer := Cell{Key: "outer", Run: func() (any, error) {
		_, err := s.Do(context.Background(), Cell{Key: "inner", Run: func() (any, error) { return nil, errBoom }})
		return nil, err
	}}
	_, err := s.Do(context.Background(), outer)
	if !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	if got := strings.Count(err.Error(), "runner: cell"); got != 1 {
		t.Errorf("error wrapped %d times: %v", got, err)
	}
	if !strings.Contains(err.Error(), `"inner"`) {
		t.Errorf("root-cause cell not named: %v", err)
	}
}

func TestAllTyped(t *testing.T) {
	s := New(4)
	tasks := make([]Task[string], 10)
	for i := range tasks {
		i := i
		tasks[i] = Task[string]{Key: fmt.Sprintf("t%d", i), Run: func() (string, error) {
			return fmt.Sprintf("v%d", i), nil
		}}
	}
	vals, err := All(context.Background(), s, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("vals[%d] = %q", i, v)
		}
	}
}

// TestAllTypeMismatch: a key collision across result types is reported,
// not a panic.
func TestAllTypeMismatch(t *testing.T) {
	s := New(1)
	if _, err := s.Do(context.Background(), Cell{Key: "k", Run: func() (any, error) { return 1, nil }}); err != nil {
		t.Fatal(err)
	}
	_, err := All(context.Background(), s, []Task[string]{{Key: "k", Run: func() (string, error) { return "", nil }}})
	if err == nil {
		t.Error("type mismatch must error")
	}
}

// TestAdmissionCapAcrossBatches: batches submitted at once share the
// scheduler's admission tokens, so three concurrent Maps on New(2) never
// have more than 2 cells in flight together (each Map alone would run 2).
func TestAdmissionCapAcrossBatches(t *testing.T) {
	const capacity = 2
	s := New(capacity)
	var inFlight, maxSeen atomic.Int64
	batch := func(b int) []Cell {
		cells := make([]Cell, 8)
		for i := range cells {
			cells[i] = Cell{Key: fmt.Sprintf("b%d/c%d", b, i), Run: func() (any, error) {
				cur := inFlight.Add(1)
				for {
					prev := maxSeen.Load()
					if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return nil, nil
			}}
		}
		return cells
	}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Map(context.Background(), batch(b)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > capacity {
		t.Errorf("peak cells in flight %d exceeds capacity %d", got, capacity)
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.avail != capacity {
		t.Errorf("avail = %d after the batches, want full capacity %d", s.avail, capacity)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if got := New(0).Parallelism(); got < 1 {
		t.Errorf("parallelism = %d", got)
	}
	if got := New(3).Parallelism(); got != 3 {
		t.Errorf("parallelism = %d want 3", got)
	}
}
