package collabscope

import (
	"fmt"
	"strings"

	"collabscope/internal/embed"
	"collabscope/internal/encoder"
	"collabscope/internal/enrich"
)

// Pluggable encoder backends and the deterministic enrichment stage
// (DESIGN.md §16). The pipeline encoder is batch-first: Encoder takes a
// whole text batch per call, so a remote backend can amortise round trips
// while the local hash encoder fans out over the worker pool. Single-text
// encoders plug in through BatchEncoder.

// TextEncoder is a single-text encoder: one call, one signature. Wrap one
// with BatchEncoder to use it as a pipeline Encoder.
type TextEncoder = embed.TextEncoder

// BatchEncoder adapts a single-text encoder to the batch-first Encoder
// contract, fanning the batch out over the pipeline worker pool with the
// usual guarantees (bit-identical results at any worker count, panics
// isolated per element).
func BatchEncoder(e TextEncoder) Encoder { return embed.Batch(e) }

// ErrDimMismatch reports signatures of the wrong shape: an encoder that
// broke its batch contract (a signature length other than Dim(), or a
// vector count other than the text count), or a foreign model trained at
// another dimension than the signatures it assesses. Both are caught
// before a truncated, padded or mismatched matrix reaches any model.
var ErrDimMismatch = embed.ErrDimMismatch

// EncoderBackends lists the built-in encoder backend names accepted by
// WithEncoderBackend and the CLIs' -encoder flag.
func EncoderBackends() []string { return encoder.Backends() }

// WithEncoderBackend selects an encoder backend by spec instead of
// constructing one: "hash" (or "") for the deterministic default,
// "remote:<url>" for the batched HTTP backend with coalescing, retries,
// and a content-addressed signature cache. The backend inherits the
// pipeline's dimension (WithDimension), HTTP client, retry policy, and
// metrics registry, regardless of option order. An invalid spec surfaces
// on the first encode of any pipeline call, not as a construction panic.
func WithEncoderBackend(spec string) Option {
	return func(p *Pipeline) {
		p.encSpec = spec
		p.hasEncSpec = true
	}
}

// WithEncoderCache persists the remote backend's signature cache under
// dir via the checkpoint store, so cache-warm reruns over the same
// schemas cost zero requests even across process restarts. Ignored by
// purely local backends.
func WithEncoderCache(dir string) Option {
	return func(p *Pipeline) { p.encCache = dir }
}

// Enricher derives extra context text per schema element ahead of
// encoding. Implementations must be deterministic, label-free, and
// append-only — see the enrichment contract in DESIGN.md §16.
type Enricher = enrich.Enricher

// NewLexiconEnricher returns the lexicon enricher: every element's tokens
// are expanded through the abbreviation/synonym lexicon (ACCT → account;
// CLIENT → buyer, customer, purchaser, …), bridging differently labelled
// but synonymous metadata.
func NewLexiconEnricher() Enricher { return enrich.NewLexicon() }

// NewFKContextEnricher returns the foreign-key context enricher: FK
// attributes are annotated with their reconstructed target table's name
// and key vocabulary, so a bare CUSTOMER_ID carries the context of the
// CUSTOMERS table it references.
func NewFKContextEnricher() Enricher { return enrich.NewFKContext() }

// Enrichers lists the built-in enricher names accepted by ParseEnrichers
// and the CLIs' -enrich flag.
func Enrichers() []string { return []string{"lexicon", "fk"} }

// ParseEnrichers resolves a comma-separated enricher list ("lexicon,fk");
// "" and "none" mean no enrichment.
func ParseEnrichers(spec string) ([]Enricher, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var out []Enricher
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "lexicon":
			out = append(out, NewLexiconEnricher())
		case "fk":
			out = append(out, NewFKContextEnricher())
		case "":
			return nil, fmt.Errorf("collabscope: empty enricher name in %q", spec)
		default:
			return nil, fmt.Errorf("collabscope: unknown enricher %q (have %s)",
				strings.TrimSpace(name), strings.Join(Enrichers(), ", "))
		}
	}
	return out, nil
}

// WithEnrichers runs the given enrichers, in order, between schema load
// and encoding on every pipeline path (EncodeContext,
// CollaborativeScopeContext, MatchContext, …). No enrichers — the
// default — is the base pipeline exactly.
func WithEnrichers(es ...Enricher) Option {
	return func(p *Pipeline) { p.enrichers = append(p.enrichers, es...) }
}
