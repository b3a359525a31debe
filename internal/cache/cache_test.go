package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; inserting c must evict b.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Errorf("a: %v %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Errorf("c: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert
	c.Put("c", 3)  // must evict b, not a
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Errorf("a after update: %v %v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestLRUStats(t *testing.T) {
	c := New(4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("missing")
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats %d/%d, want 1/1", hits, misses)
	}
}

// TestLRUProbeCountsHitsOnly checks Probe counts and refreshes a hit
// like Get but leaves a miss uncounted.
func TestLRUProbeCountsHitsOnly(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Probe("a"); !ok || v != 1 {
		t.Fatalf("Probe(a) = %v, %v", v, ok)
	}
	if _, ok := c.Probe("missing"); ok {
		t.Fatal("Probe(missing) hit")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 0 {
		t.Errorf("stats %d/%d, want 1/0", hits, misses)
	}
	c.Put("c", 3) // a was refreshed by the probe, so b is the oldest
	if _, ok := c.Probe("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Probe("a"); !ok {
		t.Error("a should have survived its probe")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := New(0) // clamped to 1
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Errorf("len %d, want 1", c.Len())
	}
}

// TestLRUShardCount pins the shard fan-out policy: small caches keep
// one shard (exact global LRU order, which the eviction tests above
// rely on), large caches split up to 16 ways, and per-shard capacities
// always sum to the requested bound.
func TestLRUShardCount(t *testing.T) {
	cases := []struct {
		max, shards int
	}{
		{1, 1}, {16, 1}, {63, 1}, {64, 2}, {128, 4}, {256, 8}, {512, 16}, {1024, 16}, {100000, 16},
	}
	for _, tc := range cases {
		c := New(tc.max)
		if got := c.Shards(); got != tc.shards {
			t.Errorf("New(%d).Shards() = %d, want %d", tc.max, got, tc.shards)
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].max
		}
		if total != tc.max {
			t.Errorf("New(%d): shard capacities sum to %d", tc.max, total)
		}
	}
}

// TestLRUShardedBound fills a sharded cache far past capacity and
// checks the global bound holds and resident entries stay readable.
func TestLRUShardedBound(t *testing.T) {
	const max = 512
	c := New(max)
	if c.Shards() < 2 {
		t.Fatalf("want a sharded cache, got %d shards", c.Shards())
	}
	for i := 0; i < 4*max; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > max {
		t.Errorf("len %d exceeds capacity %d", n, max)
	}
	// The most recent insert of each shard must still be resident.
	hits, misses := c.Stats()
	if v, ok := c.Get(fmt.Sprintf("key-%d", 4*max-1)); !ok || v.(int) != 4*max-1 {
		t.Errorf("most recent key: %v %v", v, ok)
	}
	h2, m2 := c.Stats()
	if h2 != hits+1 || m2 != misses {
		t.Errorf("stats after hit: %d/%d -> %d/%d", hits, misses, h2, m2)
	}
}

// TestLRUShardStability checks a key always lands on one shard: a Put
// followed by Gets from many goroutines must always find it.
func TestLRUShardStability(t *testing.T) {
	c := New(1024)
	c.Put("stable", 42)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if v, ok := c.Get("stable"); !ok || v.(int) != 42 {
					t.Errorf("stable key lost: %v %v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLRUConcurrent exercises the lock under -race.
func TestLRUConcurrent(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, i)
				c.Get(key)
				c.Len()
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}

// TestLRUConcurrentSharded exercises the sharded layout (multiple
// shards plus the atomic counters) under -race, with Stats readers
// racing the hot path — the PR 8 contention fix this package exists
// for.
func TestLRUConcurrentSharded(t *testing.T) {
	c := New(2048)
	if c.Shards() != 16 {
		t.Fatalf("want 16 shards, got %d", c.Shards())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%64)
				c.Put(key, i)
				c.Get(key)
				c.Get("absent")
			}
		}(w)
	}
	// Dedicated Stats/Len readers: these must never block behind (or
	// race with) the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Stats()
				c.Len()
			}
		}()
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits != 8*500 || misses != 8*500 {
		t.Errorf("stats %d/%d, want 4000/4000", hits, misses)
	}
	if c.Len() > 2048 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}
