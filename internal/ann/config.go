package ann

// A single flat Config selects and parameterises an index backend, so
// matchers, blockers, benches, and CLI flags plumb one value instead of
// per-backend constructor calls. Zero value = exact flat search.

import (
	"fmt"
	"strings"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// Kind names an index backend.
type Kind string

const (
	// KindFlat is the exact brute-force scan (the default).
	KindFlat Kind = "flat"
	// KindLSH is the random-hyperplane LSH index.
	KindLSH Kind = "lsh"
	// KindHNSW is the hierarchical navigable small-world graph index.
	KindHNSW Kind = "hnsw"
	// KindIVF is the inverted-file (k-means coarse quantizer) index.
	KindIVF Kind = "ivf"
)

// ParseKind resolves a backend name (case-insensitive; "" means flat).
func ParseKind(s string) (Kind, error) {
	switch Kind(strings.ToLower(strings.TrimSpace(s))) {
	case "", KindFlat:
		return KindFlat, nil
	case KindLSH:
		return KindLSH, nil
	case KindHNSW:
		return KindHNSW, nil
	case KindIVF:
		return KindIVF, nil
	}
	return "", fmt.Errorf("ann: unknown index kind %q (have flat, lsh, hnsw, ivf)", s)
}

// Config selects an index backend and its parameters. The zero value (and
// any config whose Kind is empty) builds the exact FlatIndex; fields that
// do not apply to the selected kind are ignored. Zero-valued fields take
// the backend's documented defaults.
type Config struct {
	// Kind selects the backend; empty means KindFlat.
	Kind Kind

	// Tables and Bits parameterise KindLSH (see LSHConfig).
	Tables, Bits int

	// M, EfConstruction and EfSearch parameterise KindHNSW (see
	// HNSWConfig).
	M, EfConstruction, EfSearch int

	// NLists and NProbe parameterise KindIVF (see IVFConfig).
	NLists, NProbe int

	// Seed drives the backend's randomised construction (LSH hyperplanes,
	// HNSW level draws, IVF k-means++ seeding).
	Seed int64

	// Metrics, when non-nil, registers backend counters (currently
	// ann.lsh.fallbacks) with the registry.
	Metrics *obs.Registry
}

// Validate reports whether the config can build an index. Build validates
// too; callers that construct matchers ahead of time (the registry, CLI
// flags) call Validate so a bad config fails at construction, not silently
// at match time.
func (c Config) Validate() error {
	kind, err := ParseKind(string(c.Kind))
	if err != nil {
		return err
	}
	switch kind {
	case KindLSH:
		if c.Tables < 0 || c.Bits < 0 {
			return fmt.Errorf("ann: lsh tables/bits must be ≥ 0 (tables %d, bits %d)", c.Tables, c.Bits)
		}
		if c.Bits > 64 {
			return fmt.Errorf("ann: %d bits exceeds 64", c.Bits)
		}
	case KindHNSW:
		return HNSWConfig{M: c.M, EfConstruction: c.EfConstruction, EfSearch: c.EfSearch}.validate()
	case KindIVF:
		return IVFConfig{NLists: c.NLists, NProbe: c.NProbe}.validate()
	}
	return nil
}

// Build constructs the configured index over the rows of x.
func Build(x *linalg.Dense, c Config) (Index, error) {
	kind, err := ParseKind(string(c.Kind))
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindLSH:
		return NewLSHIndex(x, LSHConfig{Tables: c.Tables, Bits: c.Bits, Seed: c.Seed, Metrics: c.Metrics})
	case KindHNSW:
		return NewHNSWIndex(x, HNSWConfig{M: c.M, EfConstruction: c.EfConstruction, EfSearch: c.EfSearch, Seed: c.Seed})
	case KindIVF:
		return NewIVFIndex(x, IVFConfig{NLists: c.NLists, NProbe: c.NProbe, Seed: c.Seed})
	}
	return NewFlatIndex(x), nil
}
