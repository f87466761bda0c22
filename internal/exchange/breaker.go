package exchange

// Per-peer circuit breaking: the client tracks every peer host it talks to
// and stops sending to a host that keeps failing, so a dead or sick replica
// costs one fast typed error instead of a full timeout+retry schedule per
// call. The state machine is the classic three-state breaker:
//
//	closed    — requests flow; consecutive failures and a rolling
//	            error-rate window are tracked.
//	open      — requests short-circuit with ErrCircuitOpen until Cooldown
//	            has elapsed since the breaker opened.
//	half-open — exactly one probe request is admitted; its success closes
//	            the breaker, its failure re-opens it for another Cooldown.
//
// Transitions and states are first-class metrics on an instrumented client:
// "exchange.breaker.<host>.state" (gauge: 0 closed, 1 half-open, 2 open)
// plus "exchange.breaker.<host>.opened" / ".half_opens" / ".closed"
// transition counters and "exchange.breaker.short_circuits" for rejected
// sends. The breaker clock is the client's monotonic epoch stopwatch, so
// time.Now stays inside internal/obs.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrCircuitOpen is the sentinel matched by errors.Is when a request was
// short-circuited because every candidate peer's breaker is open.
var ErrCircuitOpen = errors.New("exchange: circuit open")

// CircuitOpenError reports a short-circuited request: the breaker of every
// candidate host was open, so no attempt was sent.
type CircuitOpenError struct {
	// Host names the (last) host whose open breaker rejected the send.
	Host string
}

// Error implements the error interface.
func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("exchange: circuit open for %s (peer failing, cooling down)", e.Host)
}

// Is reports ErrCircuitOpen so callers can match with errors.Is.
func (e *CircuitOpenError) Is(target error) bool { return target == ErrCircuitOpen }

// BreakerState is a breaker's position in the state machine. The numeric
// values are the ones exported through the state gauge.
type BreakerState int32

// Breaker states, in escalation order.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerPolicy tunes the per-peer circuit breaker. The zero value means
// "defaults"; any field left zero individually falls back to its default.
// Breaking is off entirely unless WithBreaker is passed to NewClient.
type BreakerPolicy struct {
	// ConsecutiveFailures opens the breaker after this many request-level
	// failures in a row (retries exhausted counts as one failure).
	// Default 5.
	ConsecutiveFailures int
	// Window is the rolling request-outcome window backing the error-rate
	// trigger. Default 16.
	Window int
	// ErrorRate opens the breaker when the failure fraction over a full
	// Window reaches it (0 < rate ≤ 1). 0 disables the rate trigger,
	// leaving only the consecutive-failure one.
	ErrorRate float64
	// Cooldown is how long an open breaker rejects sends before admitting
	// the half-open probe. Default 2 s.
	Cooldown time.Duration
}

// DefaultBreakerPolicy returns the breaker defaults: 5 consecutive
// failures, a 16-request window with the rate trigger off, 2 s cooldown.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{ConsecutiveFailures: 5, Window: 16, Cooldown: 2 * time.Second}
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	def := DefaultBreakerPolicy()
	if p.ConsecutiveFailures <= 0 {
		p.ConsecutiveFailures = def.ConsecutiveFailures
	}
	if p.Window <= 0 {
		p.Window = def.Window
	}
	if p.Cooldown <= 0 {
		p.Cooldown = def.Cooldown
	}
	return p
}

// breaker is one host's breaker. All methods take the client's monotonic
// clock reading so the state machine is testable with a fake clock.
type breaker struct {
	pol BreakerPolicy

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	// outcomes is the rolling window ring (true = failure).
	outcomes []bool
	oidx     int
	ocount   int
	failures int
	openedAt time.Duration
	// probing marks the half-open probe as in flight; further sends
	// short-circuit until the probe reports.
	probing bool
}

func newBreaker(pol BreakerPolicy) *breaker {
	return &breaker{pol: pol, outcomes: make([]bool, pol.Window)}
}

// transition is a state change the client turns into metrics.
type transition int

const (
	transitionNone transition = iota
	transitionOpened
	transitionHalfOpened
	transitionClosed
)

// allow reports whether a request may be sent now. An open breaker past its
// cooldown moves to half-open and admits exactly one probe.
func (b *breaker) allow(now time.Duration) (bool, transition) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, transitionNone
	case BreakerOpen:
		if now-b.openedAt < b.pol.Cooldown {
			return false, transitionNone
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, transitionHalfOpened
	default: // BreakerHalfOpen
		if b.probing {
			return false, transitionNone
		}
		b.probing = true
		return true, transitionNone
	}
}

// record folds one request-level outcome into the state machine.
func (b *breaker) record(success bool, now time.Duration) transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if success {
			b.reset()
			b.state = BreakerClosed
			return transitionClosed
		}
		b.state = BreakerOpen
		b.openedAt = now
		return transitionOpened
	case BreakerOpen:
		// A request admitted while closed finished after the breaker
		// opened; its outcome is stale.
		return transitionNone
	}
	// Closed: update the counters and check the triggers.
	if success {
		b.consecutive = 0
	} else {
		b.consecutive++
	}
	if b.ocount == len(b.outcomes) {
		if b.outcomes[b.oidx] {
			b.failures--
		}
	} else {
		b.ocount++
	}
	b.outcomes[b.oidx] = !success
	if !success {
		b.failures++
	}
	b.oidx = (b.oidx + 1) % len(b.outcomes)

	trip := b.consecutive >= b.pol.ConsecutiveFailures
	if !trip && b.pol.ErrorRate > 0 && b.ocount == len(b.outcomes) {
		trip = float64(b.failures)/float64(b.ocount) >= b.pol.ErrorRate
	}
	if trip {
		b.reset()
		b.state = BreakerOpen
		b.openedAt = now
		return transitionOpened
	}
	return transitionNone
}

// abandon releases an in-flight half-open probe slot without judging the
// host — used when the probe attempt never reported (caller context died,
// or a hedge won elsewhere), so the slot must not stay occupied forever.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probing {
		b.probing = false
	}
}

// reset clears the counting state (not the breaker state itself).
func (b *breaker) reset() {
	b.consecutive = 0
	b.failures = 0
	b.ocount = 0
	b.oidx = 0
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
}

// current returns the state for assertions and gauges.
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerFor returns (creating if needed) the host's breaker; nil when
// breaking is not configured.
func (c *Client) breakerFor(host string) *breaker {
	if !c.breakEnabled || host == "" {
		return nil
	}
	c.breakMu.Lock()
	defer c.breakMu.Unlock()
	b, ok := c.breakers[host]
	if !ok {
		b = newBreaker(c.breakPolicy)
		if c.breakers == nil {
			c.breakers = make(map[string]*breaker)
		}
		c.breakers[host] = b
	}
	return b
}

// BreakerState reports the host's current breaker state (BreakerClosed when
// breaking is off or the host has never been tried).
func (c *Client) BreakerState(host string) BreakerState {
	if !c.breakEnabled {
		return BreakerClosed
	}
	c.breakMu.Lock()
	b, ok := c.breakers[host]
	c.breakMu.Unlock()
	if !ok {
		return BreakerClosed
	}
	return b.current()
}

// noteTransition turns a breaker transition into metrics: the per-host
// state gauge plus a transition counter.
func (c *Client) noteTransition(host string, b *breaker, tr transition) {
	if tr == transitionNone || c.reg == nil {
		return
	}
	prefix := c.ns + ".breaker." + host + "."
	c.reg.Gauge(prefix + "state").Set(int64(b.current()))
	switch tr {
	case transitionOpened:
		c.reg.Counter(prefix + "opened").Inc()
	case transitionHalfOpened:
		c.reg.Counter(prefix + "half_opens").Inc()
	case transitionClosed:
		c.reg.Counter(prefix + "closed").Inc()
	}
}
