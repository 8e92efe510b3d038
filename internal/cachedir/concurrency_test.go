package cachedir

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// TestParallelReadersDuringEviction drives concurrent result Gets and
// trace OpenTraces while writers overflow the byte budget and the LRU
// walk deletes files under them — the shape a busy daemon puts the
// cache in. Every read must resolve as a clean hit or a clean miss;
// corruption counters must stay zero. Run under -race in CI.
func TestParallelReadersDuringEviction(t *testing.T) {
	d := openRW(t, Options{Version: "v1", MaxBytes: 64 << 10})
	payload := make([]byte, 8<<10)
	m := testTrace(2000)
	digest, err := d.AddTrace(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: results tier and traces tier.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					if got, ok := d.Get(fmt.Sprintf("k%d", i%16)); ok && len(got) != len(payload) {
						t.Errorf("short payload: %d", len(got))
					}
				} else {
					if m, ok := d.OpenTrace(digest); ok {
						if m.Refs() != 2000 {
							t.Errorf("trace refs = %d", m.Refs())
						}
						m.Close()
					}
				}
			}
		}(g)
	}
	// Writers: keep the directory over budget so eviction walks run
	// concurrently with the readers; re-add the trace so it reappears
	// when evicted.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				d.Put(fmt.Sprintf("k%d", (g*20+i)%16), payload)
				if i%8 == 0 {
					d.AddTrace(m)
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c := d.Counters(); c.BadEntries != 0 {
		t.Fatalf("eviction under readers produced bad entries: %+v", c)
	}
	if c := d.Counters(); c.EvictedEntries == 0 {
		t.Skip("no eviction triggered (timing); counters still clean")
	}
}

// TestParallelReadersDuringRepair poisons a result entry and a trace
// store, then races many readers (each of which detects the corruption
// and deletes the bad file) against writers repairing the entries — the
// repair-on-corrupt path the daemon exercises whenever a damaged cache
// serves concurrent jobs. Run under -race in CI.
func TestParallelReadersDuringRepair(t *testing.T) {
	d := openRW(t, Options{Version: "v1"})
	payload := []byte("good payload")
	if !d.Put("k", payload) {
		t.Fatal("seed Put failed")
	}
	m := testTrace(500)
	digest, err := d.AddTrace(m)
	if err != nil {
		t.Fatal(err)
	}
	poison := func() {
		if err := os.WriteFile(d.resultPath(d.addr("k")), []byte("LTREgarbage"), 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.tracePath(digest), []byte("LTCXgarbage"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	poison()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch g % 3 {
				case 0:
					if got, ok := d.Get("k"); ok && string(got) != string(payload) {
						t.Errorf("Get returned corrupt payload %q", got)
					}
				case 1:
					if m, ok := d.OpenTrace(digest); ok {
						if m.Refs() != 500 {
							t.Errorf("trace refs = %d after repair", m.Refs())
						}
						m.Close()
					}
				default:
					// Repairing writers.
					d.Put("k", payload)
					d.AddTrace(m)
				}
			}
		}(g)
	}
	wg.Wait()
	// After the dust settles the entries must be healthy.
	d.Put("k", payload)
	if got, ok := d.Get("k"); !ok || string(got) != string(payload) {
		t.Fatalf("result entry not repaired: %q/%v", got, ok)
	}
	if _, err := d.AddTrace(m); err != nil {
		t.Fatal(err)
	}
	if m, ok := d.OpenTrace(digest); !ok {
		t.Fatal("trace entry not repaired")
	} else {
		m.Close()
	}
	if c := d.Counters(); c.BadEntries == 0 {
		t.Fatalf("poisoned entries were never detected: %+v", c)
	}
}
