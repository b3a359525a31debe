// Package cache provides a small, concurrency-safe LRU used for the
// service's content-addressed result store and the compiled-platform
// cache: both are keyed by a canonical hash of their inputs, so a hit
// is a proof that the cached value answers the request exactly.
//
// Large caches are sharded: the key hashes to one of a power-of-two
// set of independently locked shards, so concurrent hits on a hot
// serving path contend per shard instead of on one global mutex, and
// eviction is per shard. Hit/miss counters are atomics, so Stats()
// reads never contend with the hot path at all. Small caches (where
// per-shard capacity would drop below a useful floor) keep a single
// shard and therefore exact global LRU order.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// maxShards bounds the shard fan-out; 16 removes the global-mutex
// serialization at any concurrency a single process serves.
const maxShards = 16

// minShardCapacity is the smallest per-shard capacity worth splitting
// for: below it, sharding would make eviction order so approximate
// that tiny caches (tests, bounded artifact stores) would evict
// recently used entries on hash collisions.
const minShardCapacity = 32

// seed makes the shard hash process-stable; all LRUs share it so a
// key always lands on the same shard index for a given shard count.
var seed = maphash.MakeSeed()

// LRU is a bounded least-recently-used map from string keys to
// arbitrary values. The zero value is not usable; construct with New.
type LRU struct {
	shards []shard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// shard is one independently locked slice of the keyspace.
type shard struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

// entry is one resident key/value.
type entry struct {
	key string
	val any
}

// shardCount picks the largest power of two (up to maxShards) that
// keeps every shard at or above minShardCapacity.
func shardCount(max int) int {
	n := 1
	for n < maxShards && max/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// New returns an LRU holding at most max entries; max < 1 is treated
// as 1. Capacity is divided evenly across the shards, so per-shard
// eviction keeps the global bound exact.
func New(max int) *LRU {
	if max < 1 {
		max = 1
	}
	n := shardCount(max)
	c := &LRU{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		// Spread the capacity exactly: the first max%n shards take the
		// extra entry, so the shard capacities always sum to max.
		sm := max / n
		if i < max%n {
			sm++
		}
		c.shards[i] = shard{max: sm, ll: list.New(), items: make(map[string]*list.Element)}
	}
	return c
}

// shardFor hashes key to its shard.
func (c *LRU) shardFor(key string) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(seed, key)&c.mask]
}

// Get returns the value under key and marks it most recently used
// within its shard.
func (c *LRU) Get(key string) (any, bool) { return c.get(key, true) }

// Probe is Get for a lookup whose miss is not the last word: a hit is
// counted and refreshed as by Get, while a miss is left uncounted for
// the caller's fallback path, whose own Get counts the lookup once.
func (c *LRU) Probe(key string) (any, bool) { return c.get(key, false) }

// get looks key up, counting the hit or (with countMiss) the miss.
func (c *LRU) get(key string, countMiss bool) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		if countMiss {
			c.misses.Add(1)
		}
		return nil, false
	}
	s.ll.MoveToFront(el)
	v := el.Value.(*entry).val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores val under key, evicting the least recently used entry of
// the key's shard when that shard is full.
func (c *LRU) Put(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: val})
	if s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
	}
}

// Len returns the resident entry count across all shards.
func (c *LRU) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Shards returns the shard fan-out (1 for small caches).
func (c *LRU) Shards() int { return len(c.shards) }

// Stats returns the cumulative hit and miss counts. The counters are
// atomics, so reading them never blocks a Get or Put.
func (c *LRU) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
