// Package memo provides the one memo type behind every cache in the
// evaluator (DESIGN.md §8, "One memo type").
package memo

import "sync"

// Memo maps keys to computed values for concurrent callers. It has
// one growth rule: once it holds its cap, the next store clears
// everything first. That bounds a long-lived process's memory without
// per-entry bookkeeping, and a cleared entry only costs recomputing
// it.
//
// compute runs outside the lock, so a slow computation never blocks
// other keys; two concurrent misses on one key both compute, which is
// harmless because every memoized computation is deterministic.
//
// A nil *Memo is valid and computes every lookup, so callers thread
// an optional memo without branching.
type Memo[K comparable, V any] struct {
	mu  sync.RWMutex
	m   map[K]V
	cap int
}

// New returns an empty memo that holds at most cap (>= 1) entries.
func New[K comparable, V any](cap int) *Memo[K, V] {
	return &Memo[K, V]{m: map[K]V{}, cap: cap}
}

// Get returns key's value and whether it was already memoized,
// computing and storing it on a miss.
func (c *Memo[K, V]) Get(key K, compute func() V) (V, bool) {
	if c == nil {
		return compute(), false
	}
	if v, ok := c.lookup(key); ok {
		return v, true
	}
	v := compute()
	c.store(key, v)
	return v, false
}

// GetErr is Get for a computation that can fail: a value computed
// with a non-nil error is returned with it but not stored, so the next
// lookup of key computes again.
func (c *Memo[K, V]) GetErr(key K, compute func() (V, error)) (V, bool, error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	if v, ok := c.lookup(key); ok {
		return v, true, nil
	}
	v, err := compute()
	if err == nil {
		c.store(key, v)
	}
	return v, false, err
}

func (c *Memo[K, V]) lookup(key K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	return v, ok
}

// store memoizes v under key, clearing a full memo first.
func (c *Memo[K, V]) store(key K, v V) {
	c.mu.Lock()
	if len(c.m) >= c.cap {
		c.m = map[K]V{}
	}
	c.m[key] = v
	c.mu.Unlock()
}

// Len reports the number of memoized entries.
func (c *Memo[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Clear drops every entry, releasing the memoized values.
func (c *Memo[K, V]) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m = map[K]V{}
	c.mu.Unlock()
}
