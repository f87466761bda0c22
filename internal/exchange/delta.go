package exchange

// Delta assessment on the service hot path (DESIGN.md §15): per-model
// reconstruction-error columns are cached keyed by (tenant, signature
// fingerprint), each column stamped with the ETag of the model it was
// computed under. When a tenant republishes one schema's model — a version
// bump — the registry generation moves and the coalescer stops sharing old
// flights, but the next assessment of the same signatures recomputes ONLY
// the republished model's column; every other column is reused unchanged.
// Reused columns hold the exact float64s a fresh pass would produce (the
// kernels are deterministic per row), so delta-served verdicts are
// byte-identical to cold ones — the service.delta.* counters exist to
// prove the saved work, not to excuse drift.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"sync"

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

// lookup returns a copy of the entry's columns (so the caller reads them
// without holding the lock against concurrent flights) and marks the entry
// most recently used.
func (d *deltaStore) lookup(key string) map[string]deltaColumn {
	d.mu.Lock()
	defer d.mu.Unlock()
	cols, _ := d.entries.Get(key)
	return maps.Clone(cols)
}

// put stores freshly computed columns, evicting the least recently used
// entry beyond the capacity bound.
func (d *deltaStore) put(key string, cols map[string]deltaColumn) {
	d.mu.Lock()
	e, ok := d.entries.Get(key)
	evicted := false
	if !ok {
		e = make(map[string]deltaColumn, len(cols))
		_, evicted = d.entries.Put(key, e)
	}
	maps.Copy(e, cols)
	d.mu.Unlock()
	if evicted {
		d.reg.Counter("service.delta.evictions").Inc()
	}
}

// assessSigKey fingerprints the signature content of an assess request —
// the requesting schema's name plus the exact float64 bits of every row,
// little-endian, fed to SHA-256 a few KB at a time. Mode, epsilon and
// element labels are deliberately excluded: they only shape the verdict
// fold, not the error columns the cache holds.
func assessSigKey(tenant string, req *AssessRequest) string {
	h := sha256.New()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(req.Schema))
	h.Write([]byte{0})
	var buf [4096]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(len(req.Signatures)))
	for _, row := range req.Signatures {
		for _, v := range row {
			if len(b) == len(buf) {
				h.Write(b)
				b = buf[:0]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
