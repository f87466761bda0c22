package encoder

import (
	"fmt"
	"net/http"
	"strings"

	"collabscope/internal/checkpoint"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/obs"
)

// Config carries the pipeline-level knobs a backend constructor may need.
// Zero values mean "use the package default".
type Config struct {
	// Dim is the signature dimensionality (embed.DefaultDim if zero).
	Dim int
	// CachePath, when set, persists the remote signature cache via a
	// checkpoint store rooted there.
	CachePath string
	// Retry overrides the remote retry policy (exchange defaults if zero).
	Retry exchange.RetryPolicy
	// HTTPClient overrides the remote transport (http.DefaultClient if nil).
	HTTPClient *http.Client
	// Metrics attaches a metrics registry to the backend (disabled if nil).
	Metrics *obs.Registry
}

// Backends lists the registered backend names, in the order New documents
// them.
func Backends() []string { return []string{"hash", "remote"} }

// New resolves a backend spec of the form "name" or "name:param" — the
// same convention as the detector/matcher registries:
//
//	""              — the default deterministic hash encoder
//	"hash"          — the deterministic hash encoder
//	"remote:<url>"  — the batched HTTP backend posting to <url>
//
// Every backend honours Config.Dim, so swapping backends never changes
// signature shape.
func New(spec string, cfg Config) (embed.Encoder, error) {
	name, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, param = spec[:i], spec[i+1:]
	}
	dim := cfg.Dim
	if dim <= 0 {
		dim = embed.DefaultDim
	}
	switch name {
	case "", "hash":
		if param != "" {
			return nil, fmt.Errorf("encoder: hash backend takes no parameter, got %q", param)
		}
		return embed.NewHashEncoder(embed.WithDim(dim)), nil
	case "remote":
		if strings.TrimSpace(param) == "" {
			return nil, fmt.Errorf("encoder: remote backend needs a URL, e.g. %q", "remote:http://127.0.0.1:8093/encode")
		}
		opts := []RemoteOption{
			WithDim(dim),
			WithRetryPolicy(cfg.Retry),
			WithHTTPClient(cfg.HTTPClient),
			WithMetrics(cfg.Metrics),
		}
		if cfg.CachePath != "" {
			store, err := checkpoint.Open(cfg.CachePath)
			if err != nil {
				return nil, fmt.Errorf("encoder: open signature cache: %w", err)
			}
			opts = append(opts, WithStore(store))
		}
		return NewRemote(param, opts...)
	default:
		return nil, fmt.Errorf("encoder: unknown backend %q (have %s)", name, strings.Join(Backends(), ", "))
	}
}
