package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// memStore is a CacheStore test double over a plain map.
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Put(key string, data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = append([]byte(nil), data...)
	return true
}

func TestStoreWriteThroughAndRevive(t *testing.T) {
	store := newMemStore()
	runs := 0
	cell := Cell{
		Key:   "cell",
		Codec: GobCodec{},
		Run: func() (any, error) {
			runs++
			return 42, nil
		},
	}

	// Cold: executes, persists.
	s1 := New(1)
	s1.SetStore(store)
	v, err := s1.Do(context.Background(), cell)
	if err != nil || v.(int) != 42 {
		t.Fatalf("cold Do = %v, %v", v, err)
	}
	st := s1.Stats()
	if st.Executed != 1 || st.DiskHits != 0 || st.Persisted != 1 {
		t.Fatalf("cold stats = %+v", st)
	}

	// Warm, fresh scheduler (simulates a process restart): revives from
	// the store without running the cell.
	s2 := New(1)
	s2.SetStore(store)
	v, err = s2.Do(context.Background(), cell)
	if err != nil || v.(int) != 42 {
		t.Fatalf("warm Do = %v, %v", v, err)
	}
	st = s2.Stats()
	if st.Executed != 0 || st.DiskHits != 1 || st.Persisted != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if runs != 1 {
		t.Fatalf("cell ran %d times, want 1", runs)
	}
	if got := st.HitRate(); got != 1 {
		t.Fatalf("warm HitRate = %v, want 1 (disk hits count)", got)
	}

	// Same scheduler again: the in-memory L1 answers, no second store Get.
	gets := store.gets
	if _, err := s2.Do(context.Background(), cell); err != nil {
		t.Fatal(err)
	}
	if store.gets != gets {
		t.Fatal("memory-cached cell went back to the store")
	}
}

func TestStoreDecodeFailureFallsBack(t *testing.T) {
	store := newMemStore()
	store.Put("cell", []byte("not gob"))
	s := New(1)
	s.SetStore(store)
	runs := 0
	v, err := s.Do(context.Background(), Cell{Key: "cell", Codec: GobCodec{}, Run: func() (any, error) {
		runs++
		return "recomputed", nil
	}})
	if err != nil || v.(string) != "recomputed" || runs != 1 {
		t.Fatalf("fallback Do = %v, %v, runs=%d", v, err, runs)
	}
	st := s.Stats()
	if st.Executed != 1 || st.DiskHits != 0 || st.Persisted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The repair overwrote the poison: a fresh scheduler now revives.
	s2 := New(1)
	s2.SetStore(store)
	v, err = s2.Do(context.Background(), Cell{Key: "cell", Codec: GobCodec{}, Run: func() (any, error) {
		t.Fatal("ran despite repaired entry")
		return nil, nil
	}})
	if err != nil || v.(string) != "recomputed" {
		t.Fatalf("post-repair Do = %v, %v", v, err)
	}
}

func TestStoreErrorsNotPersisted(t *testing.T) {
	store := newMemStore()
	s := New(1)
	s.SetStore(store)
	boom := errors.New("boom")
	_, err := s.Do(context.Background(), Cell{Key: "cell", Codec: GobCodec{}, Run: func() (any, error) { return nil, boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if store.puts != 0 {
		t.Fatal("error result written to the store")
	}
	if st := s.Stats(); st.Persisted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCodecSkipsStore(t *testing.T) {
	store := newMemStore()
	s := New(1)
	s.SetStore(store)
	if _, err := s.Do(context.Background(), Cell{Key: "cell", Run: func() (any, error) { return 1, nil }}); err != nil {
		t.Fatal(err)
	}
	if store.gets != 0 || store.puts != 0 {
		t.Fatalf("non-persistable cell touched the store: gets=%d puts=%d", store.gets, store.puts)
	}
}

func TestStoreConcurrentDo(t *testing.T) {
	store := newMemStore()
	s := New(4)
	s.SetStore(store)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := string(rune('a' + i%5))
				v, err := s.Do(context.Background(), Cell{Key: key, Codec: GobCodec{}, Run: func() (any, error) { return key, nil }})
				if err != nil || v.(string) != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Executed != 5 {
		t.Fatalf("executed %d distinct cells, want 5", st.Executed)
	}
}
