package exchange

import (
	"fmt"
	"testing"

	"collabscope/internal/lru"
	"collabscope/internal/obs"
)

// TestModelCacheBounded pins satellite behaviour of the per-URL ETag
// cache: it is size-capped with LRU eviction, evictions tick the
// "exchange.etag_evictions" counter, and recently used entries survive.
func TestModelCacheBounded(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewClient(WithMetrics(reg))
	c.cache = lru.New[string, cacheEntry](2)

	for i := 0; i < 3; i++ {
		c.cachePut(fmt.Sprintf("http://peer/%d", i), cacheEntry{etag: fmt.Sprintf("e%d", i)})
	}
	// Capacity 2: the first URL was least recently used and must be gone.
	if _, ok := c.cacheGet("http://peer/0"); ok {
		t.Fatal("oldest entry survived past the cache cap")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.cacheGet(fmt.Sprintf("http://peer/%d", i)); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
	if got := reg.Counter("exchange.etag_evictions").Value(); got != 1 {
		t.Fatalf("etag_evictions = %d, want 1", got)
	}

	// A Get promotes: after touching entry 1, inserting a new entry must
	// evict entry 2, not 1.
	c.cacheGet("http://peer/1")
	c.cachePut("http://peer/3", cacheEntry{etag: "e3"})
	if _, ok := c.cacheGet("http://peer/1"); !ok {
		t.Fatal("promoted entry was evicted")
	}
	if _, ok := c.cacheGet("http://peer/2"); ok {
		t.Fatal("least recently used entry survived")
	}
}

// TestModelCacheDefaultCap pins that an unconfigured client still bounds
// the cache (DefaultModelCacheSize), so a long-lived scanner cannot grow
// without limit.
func TestModelCacheDefaultCap(t *testing.T) {
	c := NewClient()
	for i := 0; i < DefaultModelCacheSize+10; i++ {
		c.cachePut(fmt.Sprintf("http://peer/%d", i), cacheEntry{etag: "e"})
	}
	c.cacheMu.Lock()
	n := c.cache.Len()
	c.cacheMu.Unlock()
	if n != DefaultModelCacheSize {
		t.Fatalf("cache holds %d entries, want the %d cap", n, DefaultModelCacheSize)
	}
}

// TestModelCacheUpdateDoesNotEvict pins that refreshing an existing URL's
// entry (a model revalidation) never evicts a different model.
func TestModelCacheUpdateDoesNotEvict(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewClient(WithMetrics(reg))
	c.cache = lru.New[string, cacheEntry](2)
	c.cachePut("a", cacheEntry{etag: "1"})
	c.cachePut("b", cacheEntry{etag: "1"})
	c.cachePut("a", cacheEntry{etag: "2"})
	if e, ok := c.cacheGet("a"); !ok || e.etag != "2" {
		t.Fatalf("update lost: %+v ok=%v", e, ok)
	}
	if _, ok := c.cacheGet("b"); !ok {
		t.Fatal("update of a evicted b")
	}
	if got := reg.Counter("exchange.etag_evictions").Value(); got != 0 {
		t.Fatalf("etag_evictions = %d, want 0", got)
	}
}
