package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
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

// TestWeightedAdmission: a heavy cell's Weight reserves admission tokens,
// so the combined concurrency of light cells running beside it never
// exceeds the scheduler's capacity minus the reserved share.
func TestWeightedAdmission(t *testing.T) {
	const capacity = 4
	s := New(capacity)
	var inFlight, maxSeen atomic.Int64
	weight := func(key string, w, claim int) Cell {
		return Cell{Key: key, Weight: w, Run: func() (any, error) {
			cur := inFlight.Add(int64(claim))
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			inFlight.Add(int64(-claim))
			return nil, nil
		}}
	}
	cells := []Cell{weight("heavy", 3, 3)}
	for i := 0; i < 24; i++ {
		cells = append(cells, weight(fmt.Sprintf("light%d", i), 1, 1))
	}
	if _, err := s.Map(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got > capacity {
		t.Errorf("peak claimed weight %d exceeds capacity %d", got, capacity)
	}
}

// TestWeightClamped: a weight beyond capacity is admitted anyway
// (deadlock freedom) and over-releases nothing.
func TestWeightClamped(t *testing.T) {
	s := New(2)
	cells := []Cell{
		{Key: "w9", Weight: 9, Run: func() (any, error) { return 1, nil }},
		{Key: "w0", Weight: -1, Run: func() (any, error) { return 2, nil }},
	}
	vals, err := s.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 1 || vals[1].(int) != 2 {
		t.Errorf("vals = %v", vals)
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.avail != 2 {
		t.Errorf("avail = %d after batch, want full capacity 2", s.avail)
	}
}

// TestMapNested: nested fan-out inside a running cell takes no admission
// tokens, dedupes through the cache, and keeps submission order.
func TestMapNested(t *testing.T) {
	s := New(2)
	var inner atomic.Int64
	outer := Cell{Key: "outer", Weight: 2, Run: func() (any, error) {
		tasks := make([]Task[int], 8)
		for i := range tasks {
			i := i
			tasks[i] = Task[int]{Key: fmt.Sprintf("shard%d", i%4), Run: func() (int, error) {
				inner.Add(1)
				return i % 4, nil
			}}
		}
		vals, err := AllNested(context.Background(), s, tasks, 4)
		if err != nil {
			return nil, err
		}
		sum := 0
		for i, v := range vals {
			if v != i%4 {
				return nil, fmt.Errorf("vals[%d] = %d", i, v)
			}
			sum += v
		}
		return sum, nil
	}}
	v, err := s.Do(context.Background(), outer)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 12 {
		t.Errorf("sum = %v want 12", v)
	}
	if inner.Load() != 4 {
		t.Errorf("nested cells executed %d times, want 4 (deduped)", inner.Load())
	}
}

// TestMapNestedError: a nested failure aborts the nested batch and
// surfaces with the nested cell named.
func TestMapNestedError(t *testing.T) {
	s := New(1)
	_, err := s.MapNested(context.Background(), []Cell{
		{Key: "ok", Run: func() (any, error) { return nil, nil }},
		{Key: "nested-bad", Run: func() (any, error) { return nil, errBoom }},
	}, 2)
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "nested-bad") {
		t.Errorf("err = %v", err)
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
