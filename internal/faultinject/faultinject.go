// Package faultinject provides deterministic, seed-driven fault injection
// for chaos-testing the pipeline's crash-safety claims.
//
// Production code exposes named hook points (sites) by calling Hit and
// Corrupt; both are no-ops costing one atomic load while no injector is
// armed, so hooks stay compiled into the hot paths permanently. A chaos
// test builds an Injector from a seed and a fault plan, arms it — globally
// with Arm, or on a single exchange server/client instance — and the
// injector then decides per (site, ordinal, fault) whether to fire. The
// decision is a pure function of the seed, so a fixed seed replays the
// exact same fault schedule on every run, independent of goroutine
// scheduling for sites whose faults use At ordinals or Rate 1.
//
// Current hook points:
//
//	parallel.item            — before each worker-pool item (Hit)
//	exchange.client.request  — before each HTTP attempt (Hit)
//	exchange.client.body     — fetched response bytes (Corrupt)
//	exchange.server.request  — hub request admission (Hit; error ⇒ 500)
//	exchange.server.body     — published model bytes (Corrupt)
//	exchange.service.assess  — assess computation (Hit; delays stall inside
//	                           the admission window, errors ⇒ 500)
//	schema.load              — schema JSON ingestion (Hit)
//	schema.load.bytes        — schema JSON payload (Corrupt)
//	embed.load               — signature-set ingestion (Hit)
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests can
// tell injected failures from organic ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind is a fault flavour.
type Kind int

// Fault kinds.
const (
	// KindError makes Hit return an injected error.
	KindError Kind = iota
	// KindPanic makes Hit panic (exercising panic-isolation layers).
	KindPanic
	// KindDelay makes Hit sleep for the fault's Delay before returning.
	KindDelay
	// KindCorrupt makes Corrupt flip one byte of the payload.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one entry of an injector's plan: at the named site, fire with
// probability Rate per hit — or exactly at the listed At ordinals (0-based
// hit counts) when At is non-empty, which is fully deterministic even under
// concurrent hits of the same site.
type Fault struct {
	Site  string
	Kind  Kind
	Rate  float64
	At    []uint64
	Delay time.Duration
}

// Event records one fired fault, for test assertions.
type Event struct {
	Site    string
	Kind    Kind
	Ordinal uint64
}

// Injector decides deterministically, from a seed and a fault plan, which
// hits of which sites fail and how. The zero value is not usable; call New.
type Injector struct {
	seed   uint64
	faults map[string][]Fault

	mu       sync.Mutex
	ordinals map[string]*atomic.Uint64
	events   []Event
}

// New returns an injector firing the given faults under the seed.
func New(seed int64, faults ...Fault) *Injector {
	in := &Injector{
		seed:     uint64(seed),
		faults:   map[string][]Fault{},
		ordinals: map[string]*atomic.Uint64{},
	}
	for _, f := range faults {
		in.faults[f.Site] = append(in.faults[f.Site], f)
	}
	return in
}

// Events returns a copy of the fired-fault log in firing order.
func (in *Injector) Events() []Event { // lintobs:allow tests in faultinject, parallel and exchange read the fired faults through it
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// next claims the ordinal of this hit of a site.
func (in *Injector) next(site string) uint64 {
	in.mu.Lock()
	ord, ok := in.ordinals[site]
	if !ok {
		ord = &atomic.Uint64{}
		in.ordinals[site] = ord
	}
	in.mu.Unlock()
	return ord.Add(1) - 1
}

// fires reports whether fault number idx of a site fires at an ordinal.
// The decision mixes seed, site, ordinal, and fault index through
// splitmix64, so it is a pure function of the plan — the same seed replays
// the same schedule.
func (in *Injector) fires(f Fault, site string, idx int, ordinal uint64) bool {
	if len(f.At) > 0 {
		for _, at := range f.At {
			if at == ordinal {
				return true
			}
		}
		return false
	}
	if f.Rate >= 1 {
		return true
	}
	if f.Rate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(site))
	u := splitmix64(in.seed ^ h.Sum64() ^ (ordinal+1)*0x9e3779b97f4a7c15 ^ uint64(idx+1)*0xbf58476d1ce4e5b9)
	return float64(u>>11)/float64(1<<53) < f.Rate
}

func (in *Injector) record(site string, k Kind, ordinal uint64) {
	in.mu.Lock()
	in.events = append(in.events, Event{Site: site, Kind: k, Ordinal: ordinal})
	in.mu.Unlock()
}

// Hit evaluates the site's non-corruption faults at the current hit
// ordinal: delays sleep in place, errors return wrapping ErrInjected, and
// panics panic with a descriptive value. Multiple faults on one site are
// evaluated in plan order, so a delay can precede an error. A nil injector
// never fires, so instance-scoped hooks need no nil guard.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	faults := in.faults[site]
	if len(faults) == 0 {
		return nil
	}
	ordinal := in.next(site)
	for idx, f := range faults {
		if f.Kind == KindCorrupt || !in.fires(f, site, idx, ordinal) {
			continue
		}
		in.record(site, f.Kind, ordinal)
		switch f.Kind {
		case KindDelay:
			time.Sleep(f.Delay)
		case KindPanic:
			panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, ordinal))
		default:
			return fmt.Errorf("%w: %s (hit %d)", ErrInjected, site, ordinal)
		}
	}
	return nil
}

// Corrupt evaluates the site's corruption faults and, when one fires, flips
// one deterministically chosen byte of b (in place) and returns it. A nil
// injector returns b untouched.
func (in *Injector) Corrupt(site string, b []byte) []byte {
	if in == nil {
		return b
	}
	faults := in.faults[site]
	if len(faults) == 0 || len(b) == 0 {
		return b
	}
	ordinal := in.next(site)
	for idx, f := range faults {
		if f.Kind != KindCorrupt || !in.fires(f, site, idx, ordinal) {
			continue
		}
		in.record(site, KindCorrupt, ordinal)
		h := fnv.New64a()
		h.Write([]byte(site))
		pos := splitmix64(in.seed^h.Sum64()^ordinal) % uint64(len(b))
		b[pos] ^= 0xff
	}
	return b
}

// splitmix64 is the standard 64-bit finalising mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// current is the globally armed injector; nil means every hook is a no-op.
var current atomic.Pointer[Injector]

// Arm makes in the process-global injector behind the package-level Hit and
// Corrupt hooks and returns the disarm function. Tests must disarm (via
// defer or t.Cleanup) before the next test arms its own plan.
func Arm(in *Injector) (disarm func()) { // lintobs:allow tests in faultinject, parallel and schema arm the global injector through it
	current.Store(in)
	return func() { current.CompareAndSwap(in, nil) }
}

// Armed reports whether a global injector is armed.
func Armed() bool { return current.Load() != nil }

// Hit triggers the globally armed injector's faults for a site; it is a
// single atomic load when nothing is armed.
func Hit(site string) error {
	if in := current.Load(); in != nil {
		return in.Hit(site)
	}
	return nil
}

// Corrupt applies the globally armed injector's corruption faults for a
// site; it returns b untouched when nothing is armed.
func Corrupt(site string, b []byte) []byte {
	if in := current.Load(); in != nil {
		return in.Corrupt(site, b)
	}
	return b
}
