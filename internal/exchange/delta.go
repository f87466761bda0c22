package exchange

// Delta assessment on the service hot path (DESIGN.md §15): per-model
// reconstruction-error columns are cached keyed by core.SignatureDigest of
// (tenant, schema, signatures), each column stamped with the ETag of the
// model it was computed under. When a tenant republishes one schema's
// model — a version bump — the registry generation moves and the coalescer
// stops sharing old flights, but the next assessment of the same
// signatures recomputes ONLY the republished model's column; every other
// column is reused unchanged. Reused columns hold the exact float64s a
// fresh pass would produce (the kernels are deterministic per row), so
// delta-served verdicts are byte-identical to cold ones — the
// service.delta.* counters exist to prove the saved work, not to excuse
// drift.

import (
	"sync"

	"collabscope/internal/core"
	"collabscope/internal/lru"
	"collabscope/internal/obs"
)

// maxDeltaEntries bounds the per-server delta cache: one entry is one
// distinct (tenant, signature set) with up to one error column per foreign
// model. Eviction is least-recently-used, counted as
// "service.delta.evictions"; the cache is an accelerator, never a
// correctness dependency.
const maxDeltaEntries = 128

// deltaColumn is one cached per-model error column.
type deltaColumn struct {
	etag string
	errs []float64
}

// deltaStore maps a (tenant, signatures) key to every known column of that
// pair, keyed by foreign schema name.
type deltaStore struct {
	mu      sync.Mutex
	entries *lru.Cache[string, map[string]deltaColumn]
	reg     *obs.Registry
}

func newDeltaStore(reg *obs.Registry) *deltaStore {
	return &deltaStore{entries: lru.New[string, map[string]deltaColumn](maxDeltaEntries), reg: reg}
}

// get returns the cached column of one foreign schema under key and marks
// the entry most recently used.
func (d *deltaStore) get(key, schema string) (deltaColumn, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cols, _ := d.entries.Get(key)
	col, ok := cols[schema]
	return col, ok
}

// put stores one freshly computed column, evicting the least recently used
// entry beyond the capacity bound.
func (d *deltaStore) put(key, schema string, col deltaColumn) {
	d.mu.Lock()
	e, ok := d.entries.Get(key)
	evicted := false
	if !ok {
		e = make(map[string]deltaColumn)
		_, evicted = d.entries.Put(key, e)
	}
	e[schema] = col
	d.mu.Unlock()
	if evicted {
		d.reg.Counter("service.delta.evictions").Inc()
	}
}

// deltaColumns is one assessment's view of the delta cache, the
// core.ColumnCache computeAssess scores through: a cached column counts
// only while it carries the ETag its model is published under now.
type deltaColumns struct {
	store *deltaStore
	key   string
	etags map[string]string // foreign schema → published ETag
}

func (c *deltaColumns) Column(m *core.Model) ([]float64, bool, error) {
	col, ok := c.store.get(c.key, m.Schema)
	return col.errs, ok && col.etag == c.etags[m.Schema], nil
}

func (c *deltaColumns) Keep(m *core.Model, errs []float64) error {
	c.store.put(c.key, m.Schema, deltaColumn{etag: c.etags[m.Schema], errs: errs})
	return nil
}
