package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/enrich"
	"collabscope/internal/obs"
	"collabscope/internal/synth"
)

const (
	// workers sizes every workload for a 2-core machine: pool calls get 2
	// workers, the service 2 assess workers, the load generator 2
	// connections.
	workers = 2
	// variance is the explained-variance target v of every model.
	variance = 0.8
)

// enrichers is the enrichment stage every workload encodes through.
var enrichers = []enrich.Enricher{enrich.NewLexicon(), enrich.NewFKContext()}

// size scales the inputs. fullSize is what the benchmark runs; toySize
// lets the smoke test run every workload in about a second.
type size struct {
	// Schemas and Unrelated shape the scope_batch / evolve_churn corpus:
	// business schemas sharing vocabulary plus unrelated ones.
	Schemas, Unrelated int
	// AllDomains adds the HR, finance and logistics tables to every
	// business schema.
	AllDomains bool
	// Dim is the signature width.
	Dim int
	// Tenants × TenantSchemas is the service fleet.
	Tenants, TenantSchemas int
}

var (
	fullSize = size{Schemas: 12, Unrelated: 2, AllDomains: true, Dim: 768, Tenants: 2, TenantSchemas: 6}
	toySize  = size{Schemas: 2, Unrelated: 1, Dim: 32, Tenants: 2, TenantSchemas: 2}
)

func (sz size) synth(schemas, unrelated int, seed int64) synth.Config {
	return synth.Config{
		Schemas:          schemas,
		WithHR:           sz.AllDomains,
		WithFinance:      sz.AllDomains,
		WithLogistics:    sz.AllDomains,
		UnrelatedSchemas: unrelated,
		Seed:             seed,
	}
}

// corpus generates the scope_batch / evolve_churn schemas from the seed.
func corpus(sz size, seed int64) (*datasets.Dataset, error) {
	d, err := synth.Generate(sz.synth(sz.Schemas, sz.Unrelated, seed))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	return d, nil
}

// encodeAll enriches and encodes every schema with one fresh encoder, whose
// feature cache therefore starts cold.
func encodeAll(ctx context.Context, d *datasets.Dataset, dim, poolWorkers int) ([]*embed.SignatureSet, error) {
	enc := embed.NewHashEncoder(embed.WithDim(dim))
	sets := make([]*embed.SignatureSet, len(d.Schemas))
	for i, s := range d.Schemas {
		set, err := embed.EncodeElementsContext(ctx, poolWorkers, enc, enrich.Schema(ctx, enrichers, s))
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", s.Name, err)
		}
		sets[i] = set
	}
	return sets, nil
}

// A workload sets up at least setups times and for at least minSetup, so
// that a setup of a few milliseconds repeats until its median no longer
// hangs on a handful of samples.
const (
	setups   = 3
	minSetup = time.Second
)

// repeatSetup runs setup at least setups times, and until minSetup has passed,
// each time from a collected heap, and returns the median wall time in
// seconds. Setup repeats so that one slow repetition on a shared machine
// does not decide setup_s; the last repetition's state is the one the
// workload keeps. A non-nil reset runs untimed before each repetition, to
// release the previous one's state.
func repeatSetup(reset, setup func() error) (float64, error) {
	var secs []float64
	var total time.Duration
	for i := 0; i < setups || total < minSetup; i++ {
		if reset != nil {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		sw := obs.NewStopwatch()
		if err := setup(); err != nil {
			return 0, err
		}
		d := sw.Elapsed()
		total += d
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}
