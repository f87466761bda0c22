// Package lru provides a small size-capped least-recently-used map, the
// bounding primitive behind the long-lived caches of this repo: the
// exchange client's per-URL ETag/model cache, the exchange service's
// per-signature delta-column cache, and the encoder backends'
// content-addressed signature cache. Each would otherwise risk unbounded
// growth in a long-running service; an LRU cap turns "grows forever" into
// "evicts the coldest entry", and callers surface evictions as a counter.
//
// The cache is not safe for concurrent use; callers hold their own lock
// (every call site serialises cache access behind a mutex).
package lru

// node is one entry in the intrusive recency list. head side is the most
// recently used end.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Cache is a size-capped LRU map. Get promotes; Put inserts or updates and
// reports the evicted key when the cap forces one out.
type Cache[K comparable, V any] struct {
	capacity   int
	index      map[K]*node[K, V]
	head, tail *node[K, V] // head = most recent, tail = least recent
}

// New returns an empty cache holding at most capacity entries. A
// non-positive capacity is normalised to 1 — a cache that cannot hold
// anything would make every Put report a phantom eviction.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache[K, V]{capacity: capacity, index: make(map[K]*node[K, V])}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.index) }

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// Get returns the value under k and promotes the entry to most recent.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

// Put stores v under k as the most recent entry. When the insert pushes
// the cache over capacity the least recently used entry is dropped and its
// key returned with evicted=true; updates of an existing key never evict.
func (c *Cache[K, V]) Put(k K, v V) (evictedKey K, evicted bool) {
	if n, ok := c.index[k]; ok {
		n.val = v
		c.moveToFront(n)
		var zero K
		return zero, false
	}
	n := &node[K, V]{key: k, val: v}
	c.index[k] = n
	c.pushFront(n)
	if len(c.index) <= c.capacity {
		var zero K
		return zero, false
	}
	lru := c.tail
	c.unlink(lru)
	delete(c.index, lru.key)
	return lru.key, true
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
