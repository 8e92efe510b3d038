package trace

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

func ref(pc, addr uint64) Ref {
	return Ref{PC: mem.Addr(pc), Addr: mem.Addr(addr)}
}

func TestSliceSource(t *testing.T) {
	refs := []Ref{ref(1, 10), ref(2, 20), ref(3, 30)}
	s := NewSliceSource(refs)
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, refs) {
		t.Errorf("Collect = %v want %v", got, refs)
	}
	if n := s.ReadRefs(make([]Ref, 1)); n != 0 {
		t.Error("source should be exhausted")
	}
	s.Reset()
	if n := Count(s); n != 3 {
		t.Errorf("after Reset Count = %d want 3", n)
	}
}

func TestLimit(t *testing.T) {
	s := NewSliceSource([]Ref{ref(1, 1), ref(2, 2), ref(3, 3)})
	if n := Count(Limit(s, 2)); n != 2 {
		t.Errorf("Limit(2) yielded %d refs", n)
	}
}

func TestLimitBeyondLength(t *testing.T) {
	s := NewSliceSource([]Ref{ref(1, 1)})
	if n := Count(Limit(s, 10)); n != 1 {
		t.Errorf("Limit(10) over 1-ref source yielded %d", n)
	}
}

func TestOffset(t *testing.T) {
	var one [1]Ref
	n := Offset(NewSliceSource([]Ref{ref(1, 100)}), 0x1000, 1).ReadRefs(one[:])
	r := one[0]
	if n != 1 || r.Addr != 0x1064+0x9c-0x64 || r.Ctx != 1 {
		// 100 + 0x1000 = 0x1064
		if r.Addr != mem.Addr(100+0x1000) {
			t.Errorf("Offset ref = %+v", r)
		}
	}
	if r.PC != 1 {
		t.Errorf("Offset must not shift PC, got %#x", r.PC)
	}
}

func TestInterleaveQuanta(t *testing.T) {
	var a, b []Ref
	for i := 0; i < 10; i++ {
		a = append(a, Ref{PC: 1, Addr: mem.Addr(i), Ctx: 0})
		b = append(b, Ref{PC: 2, Addr: mem.Addr(i), Ctx: 1})
	}
	// Quantum of 3 instructions each (gap 0 => each ref is 1 instruction).
	s := InterleaveQuanta(NewSliceSource(a), NewSliceSource(b), 3, 3, 0)
	got := Collect(s, 0)
	// Pattern: 3 from a, 3 from b, 3 from a, ... (check the strict
	// alternation region; the tail drains whichever source remains).
	for i, r := range got[:18] {
		wantCtx := uint8((i / 3) % 2)
		if r.Ctx != wantCtx {
			t.Fatalf("ref %d came from ctx %d want %d", i, r.Ctx, wantCtx)
		}
	}
	// When one side exhausts, the other continues alone: everything drains.
	if len(got) != 20 {
		t.Errorf("interleaved %d refs want 20", len(got))
	}
}

func TestInterleaveSurvivorContinues(t *testing.T) {
	var a, b []Ref
	for i := 0; i < 20; i++ {
		a = append(a, Ref{PC: 1, Addr: mem.Addr(i), Ctx: 0})
	}
	for i := 0; i < 4; i++ {
		b = append(b, Ref{PC: 2, Addr: mem.Addr(i), Ctx: 1})
	}
	s := InterleaveQuanta(NewSliceSource(a), NewSliceSource(b), 3, 3, 0)
	got := Collect(s, 0)
	if len(got) != 24 {
		t.Fatalf("drained %d refs want 24", len(got))
	}
	// The tail must be all ctx-0 refs (the survivor).
	for _, r := range got[len(got)-10:] {
		if r.Ctx != 0 {
			t.Fatal("survivor should run alone after the partner exits")
		}
	}
}

func TestInterleaveMaxSwitches(t *testing.T) {
	mk := func() Source {
		var rs []Ref
		for i := 0; i < 100; i++ {
			rs = append(rs, ref(1, uint64(i)))
		}
		return NewSliceSource(rs)
	}
	s := InterleaveQuanta(mk(), mk(), 5, 5, 4)
	// 4 switches => 4 quanta of 5 instructions run before the stream stops.
	if n := Count(s); n != 20 {
		t.Errorf("maxSwitches=4 yielded %d refs want 20", n)
	}
}

func TestTeeAndStats(t *testing.T) {
	refs := []Ref{
		{PC: 1, Addr: 2, Kind: Load, Gap: 3},
		{PC: 2, Addr: 3, Kind: Store, Gap: 0, Dep: true},
	}
	var st Stats
	ForEach(NewSliceSource(refs), st.Observe)
	// Instrs = (gap 3 + ref) + (gap 0 + ref) = 5.
	want := Stats{Refs: 2, Loads: 1, Stores: 1, Instrs: 5, Deps: 1}
	if st != want {
		t.Errorf("Stats = %+v want %+v", st, want)
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), -9e18} {
		if unzigzag(zigzag(d)) != d {
			t.Errorf("zigzag round trip failed for %d", d)
		}
	}
}
