package alloccache

import (
	"fmt"
	"sync"
	"testing"
)

// stressEntry is a minimal deep-clonable payload for the eviction tests.
type stressEntry struct{ v []int }

func (e *stressEntry) CloneEntry() Entry {
	return &stressEntry{v: append([]int(nil), e.v...)}
}

// levelKey builds a well-formed signature of the given memo level, the way
// the assignment engine does (leading length-prefixed kind string).
func levelKey(level string, n int) string {
	var k Key
	k.Str(level)
	k.Int(n)
	return k.String()
}

func TestKeyLevel(t *testing.T) {
	for _, lv := range []string{"assign", "comp", "atomcolor"} {
		if got := KeyLevel(levelKey(lv, 7)); got != lv {
			t.Errorf("KeyLevel(%q key) = %q", lv, got)
		}
	}
	if got := KeyLevel("short"); got != "" {
		t.Errorf("KeyLevel(malformed) = %q, want empty", got)
	}
	if got := KeyLevel(""); got != "" {
		t.Errorf("KeyLevel(empty) = %q, want empty", got)
	}
}

// TestConcurrentEvictionStress hammers a tiny cache from many goroutines
// across all three memo levels so every Put evicts, exercising the FIFO
// ring under -race. It then checks the structural invariants and that the
// per-level stats account for every Get.
func TestConcurrentEvictionStress(t *testing.T) {
	const (
		capEntries = 8
		workers    = 8
		iters      = 500
	)
	c := New(capEntries)
	levels := []string{"assign", "comp", "atomcolor"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lv := levels[(w+i)%len(levels)]
				key := levelKey(lv, (w*iters+i)%(capEntries*4))
				if e, ok := c.Get(key); ok {
					if len(e.(*stressEntry).v) != 3 {
						panic(fmt.Sprintf("corrupt entry under %q", key))
					}
				} else {
					c.Put(key, &stressEntry{v: []int{1, 2, 3}})
				}
			}
		}(w)
	}
	wg.Wait()

	if n := c.Len(); n > capEntries {
		t.Fatalf("cache holds %d entries, capacity %d", n, capEntries)
	}
	st := c.Stats()
	if st.Entries > capEntries {
		t.Fatalf("Stats.Entries = %d, capacity %d", st.Entries, capEntries)
	}
	total := st.Hits + st.Misses
	if total != int64(workers*iters) {
		t.Fatalf("hits+misses = %d, want %d", total, workers*iters)
	}
	var levelTotal int64
	for lv, ls := range st.Levels {
		if lv != "assign" && lv != "comp" && lv != "atomcolor" {
			t.Errorf("unexpected level %q", lv)
		}
		levelTotal += ls.Hits + ls.Misses
	}
	if levelTotal != total {
		t.Fatalf("level hits+misses = %d, aggregate %d", levelTotal, total)
	}
	// The FIFO queue must not retain evicted keys: the live window is
	// order[head:] and the consumed prefix is zeroed/compacted.
	c.mu.Lock()
	live := len(c.order) - c.head
	for i := 0; i < c.head; i++ {
		if c.order[i] != "" {
			t.Errorf("evicted key retained at order[%d]", i)
		}
	}
	c.mu.Unlock()
	if live < c.Len() {
		t.Fatalf("order window %d smaller than entry count %d", live, c.Len())
	}
}

// TestEvictionOrderFIFO checks the ring-buffer rewrite preserves FIFO
// eviction: the oldest key leaves first, and compaction keeps the queue
// aligned with the entry map.
func TestEvictionOrderFIFO(t *testing.T) {
	c := New(2)
	for i := 0; i < 200; i++ {
		c.Put(levelKey("comp", i), &stressEntry{v: []int{i}})
		if i >= 1 {
			if _, ok := c.Get(levelKey("comp", i-1)); !ok {
				t.Fatalf("second-newest entry %d evicted early", i-1)
			}
		}
		if i >= 2 {
			if _, ok := c.Get(levelKey("comp", i-2)); ok {
				t.Fatalf("entry %d should have been evicted", i-2)
			}
		}
		if c.Len() > 2 {
			t.Fatalf("Len = %d, want <= 2", c.Len())
		}
	}
}
