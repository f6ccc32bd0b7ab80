package hanccr

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// flightCache is a sharded, bounded LRU with per-key singleflight —
// the one cache type behind both of a Service's levels (solved plans
// keyed by Scenario.Key, structure scaffolds keyed by
// Scenario.StructureKey).
//
// Each key hashes (FNV-1a) onto one shard with its own lock and
// recency list, so traffic on distinct keys never serializes on one
// mutex. An absent key claims its slot before the fill runs — evicting
// the shard's least recently used entry if it is full — and concurrent
// callers of the same key coalesce onto that one flight. A failed fill
// is never cached: its slot is dropped, and a waiter whose own context
// is still live retries as the new initiator when the flight died of a
// cancellation or deadline (the flight ran under its initiator's
// context, so that error is not the waiter's). Eviction is per shard,
// so the capacity is an upper bound distributed across shards, not a
// single global recency order; one shard is an exact global LRU.
type flightCache[V any] struct {
	shards []*flightShard[V]
}

// flightShard is one lock domain of a flightCache.
type flightShard[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// flight is one cache slot. once runs the fill; v and err are safe to
// read by anyone who has returned from once.Do.
type flight[V any] struct {
	key  string
	once sync.Once
	v    V
	err  error
}

// newFlightCache returns a cache of at least capacity entries split
// over shards lock domains (each holding at least one entry).
func newFlightCache[V any](capacity, shards int) *flightCache[V] {
	perShard := (capacity + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &flightCache[V]{shards: make([]*flightShard[V], shards)}
	for i := range c.shards {
		c.shards[i] = &flightShard[V]{
			cap:     perShard,
			entries: make(map[string]*list.Element),
			order:   list.New(),
		}
	}
	return c
}

// shardFor maps a key onto its shard (FNV-1a over the key bytes). The
// keys are already uniform SHA-256 hex digests, so any stable mixing
// spreads load evenly.
func (c *flightCache[V]) shardFor(key string) *flightShard[V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// get returns key's value, running fill(ctx) at most once across all
// concurrent callers of an absent key. resident reports that the
// caller found the key already cached or in flight and shared its
// result rather than starting the flight; it is false on error.
func (c *flightCache[V]) get(ctx context.Context, key string, fill func(context.Context) (V, error)) (v V, resident bool, err error) {
	sh := c.shardFor(key)
	for {
		sh.mu.Lock()
		el, ok := sh.entries[key]
		var e *flight[V]
		if ok {
			sh.order.MoveToFront(el)
			e = el.Value.(*flight[V])
		} else {
			e = &flight[V]{key: key}
			sh.entries[key] = sh.order.PushFront(e)
			sh.evictLocked()
		}
		sh.mu.Unlock()

		e.once.Do(func() { e.v, e.err = fill(ctx) })
		if e.err == nil {
			return e.v, ok, nil
		}
		// Never cache a failure; drop the slot if it is still ours.
		sh.mu.Lock()
		if cur, live := sh.entries[key]; live && cur.Value.(*flight[V]) == e {
			sh.order.Remove(cur)
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
		// The flight ran under its initiator's context: its cancellation
		// while ours is live is not our error, so retry as the initiator.
		if ctx.Err() == nil &&
			(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			continue
		}
		return v, false, e.err
	}
}

// add inserts an already-computed value unless key is cached or in
// flight (a racing flight keeps its waiters). It reports whether v
// became resident.
func (c *flightCache[V]) add(key string, v V) bool {
	e := &flight[V]{key: key, v: v}
	e.once.Do(func() {})
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return false
	}
	sh.entries[key] = sh.order.PushFront(e)
	sh.evictLocked()
	return true
}

// contains reports whether key is cached or in flight, without
// promoting it in its shard's recency order.
func (c *flightCache[V]) contains(key string) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// size reports the resident entries (in-flight ones included) and the
// total capacity, summed over the shards.
func (c *flightCache[V]) size() (entries, capacity int) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		entries += sh.order.Len()
		capacity += sh.cap
		sh.mu.Unlock()
	}
	return entries, capacity
}

// evictLocked trims the shard to its capacity, dropping the least
// recently used entries. Caller holds sh.mu.
func (sh *flightShard[V]) evictLocked() {
	for sh.order.Len() > sh.cap {
		last := sh.order.Back()
		sh.order.Remove(last)
		delete(sh.entries, last.Value.(*flight[V]).key)
	}
}
