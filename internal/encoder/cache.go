package encoder

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"collabscope/internal/checkpoint"
	"collabscope/internal/lru"
	"collabscope/internal/obs"
)

// DefaultCacheCapacity bounds the in-memory signature cache (entries).
// Evictions are counted as "encoder.cache_evictions".
const DefaultCacheCapacity = 65536

// CacheKey is the content-addressed identity of one signature: the hex
// SHA-256 of (wire version, model, dimension, text). The remote backend
// names no model and keys with the empty one, so persisted caches of
// earlier builds keep hitting. Any change to the wire version or the
// dimensionality changes every key, so a cache can never serve signatures
// from a different encoder configuration.
func CacheKey(model string, dim int, text string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|%d|", WireVersion, model, dim)
	h.Write([]byte(text))
	return hex.EncodeToString(h.Sum(nil))
}

// sigCache is the remote backend's signature cache: a size-capped
// in-memory LRU in front of an optional checkpoint.Store, so cache-warm
// reruns skip the network entirely and — with a store — survive process
// restarts. Signatures are content-addressed (CacheKey), making hits
// bit-identical to a fresh encode by construction.
type sigCache struct {
	mu    sync.Mutex
	mem   *lru.Cache[string, []float64]
	store *checkpoint.Store
	reg   *obs.Registry
}

func newSigCache(store *checkpoint.Store, reg *obs.Registry) *sigCache {
	return &sigCache{mem: lru.New[string, []float64](DefaultCacheCapacity), store: store, reg: reg}
}

// get returns a copy of the cached signature (callers own their rows).
// A memory miss falls through to the checkpoint store; a store hit is
// promoted back into memory.
func (c *sigCache) get(key string) ([]float64, bool) {
	c.mu.Lock()
	v, ok := c.mem.Get(key)
	c.mu.Unlock()
	if ok {
		c.reg.Counter("encoder.cache_hits").Inc()
		return append([]float64(nil), v...), true
	}
	if c.store != nil {
		var stored []float64
		if ok, err := c.store.Load("sig/"+key, &stored); err == nil && ok {
			c.putMem(key, stored)
			c.reg.Counter("encoder.cache_hits").Inc()
			c.reg.Counter("encoder.cache_disk_hits").Inc()
			return append([]float64(nil), stored...), true
		}
	}
	c.reg.Counter("encoder.cache_misses").Inc()
	return nil, false
}

// put stores a signature in memory and, when configured, persists it.
// Persistence failures are recorded, not fatal: the cache is an
// optimisation, never a correctness dependency.
func (c *sigCache) put(key string, v []float64) {
	c.putMem(key, append([]float64(nil), v...))
	if c.store != nil {
		if err := c.store.Save("sig/"+key, v); err != nil {
			c.reg.Counter("encoder.cache_persist_failures").Inc()
		}
	}
}

func (c *sigCache) putMem(key string, v []float64) {
	c.mu.Lock()
	_, evicted := c.mem.Put(key, v)
	c.mu.Unlock()
	if evicted {
		c.reg.Counter("encoder.cache_evictions").Inc()
	}
}
