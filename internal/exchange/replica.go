package exchange

// Replica failover: a logical peer may be served by several replicas
// holding the same registry content (content-hash ETags make "the same"
// verifiable end to end). WithReplicas maps a logical base URL to an
// ordered replica list; every client request addressed under the logical
// base is then routed across the replicas — attempt k goes to replica
// k mod n, skipping hosts whose circuit breaker is open, so a dead replica
// costs one connection error (or one short-circuit) before the next
// replica takes over. Idempotent GETs can additionally hedge: when the
// first replica has not answered within the configured latency quantile of
// its own observed history, a second request races it on the next replica
// and the first success wins.

import (
	"context"
	"net/url"
	"strings"
	"time"
)

// replicaGroup is one logical peer's ordered replica list.
type replicaGroup struct {
	logical  string
	replicas []string
}

// HedgePolicy tunes hedged GETs across a replica group. The zero value
// disables hedging; WithHedge's zero-field defaults are quantile 0.95 with
// a 50 ms fallback delay.
type HedgePolicy struct {
	// Quantile of the primary host's observed request latency after which
	// the hedge fires (requires client metrics for the history; without
	// them Delay alone decides). Default 0.95.
	Quantile float64
	// Delay is the hedge delay floor, and the whole delay when no latency
	// history exists yet. Default 50 ms.
	Delay time.Duration
}

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.Quantile <= 0 || p.Quantile > 1 {
		p.Quantile = 0.95
	}
	if p.Delay <= 0 {
		p.Delay = 50 * time.Millisecond
	}
	return p
}

// WithReplicas declares replicas for a logical peer base URL: requests
// addressed under logical fail over across the replicas in order. The
// logical base itself need not be routable. Repeated options add further
// groups.
func WithReplicas(logical string, replicas ...string) ClientOption {
	return func(c *Client) {
		logical = strings.TrimSuffix(logical, "/")
		if logical == "" || len(replicas) == 0 {
			return
		}
		trimmed := make([]string, len(replicas))
		for i, r := range replicas {
			trimmed[i] = strings.TrimSuffix(r, "/")
		}
		c.groups = append(c.groups, replicaGroup{logical: logical, replicas: trimmed})
	}
}

// WithHedge enables hedged GETs for replica groups: after the hedge delay
// (the primary's observed latency quantile, floored by Delay) a second
// request races on the next replica and the first success wins. Hedging
// never applies to POSTs.
func WithHedge(p HedgePolicy) ClientOption {
	return func(c *Client) {
		c.hedge = p.withDefaults()
		c.hedgeEnabled = true
	}
}

// WithBreaker arms the per-peer circuit breaker: request-level failures
// open a host's breaker (consecutive-failure or error-rate trigger), open
// hosts short-circuit with ErrCircuitOpen, and a half-open probe after the
// cooldown decides between closing and re-opening. Off by default.
func WithBreaker(p BreakerPolicy) ClientOption {
	return func(c *Client) {
		c.breakPolicy = p.withDefaults()
		c.breakEnabled = true
	}
}

// resolve expands a request URL into its candidate target URLs: the
// replicas of the longest-prefix-matching group (with the URL's suffix
// re-applied), or the URL itself when no group matches.
func (c *Client) resolve(rawURL string) []string {
	var best *replicaGroup
	for i := range c.groups {
		g := &c.groups[i]
		if rawURL != g.logical && !strings.HasPrefix(rawURL, g.logical+"/") {
			continue
		}
		if best == nil || len(g.logical) > len(best.logical) {
			best = g
		}
	}
	if best == nil {
		return []string{rawURL}
	}
	suffix := strings.TrimPrefix(rawURL, best.logical)
	out := make([]string, len(best.replicas))
	for i, r := range best.replicas {
		out[i] = r + suffix
	}
	return out
}

// hostOf extracts the metrics/breaker host key of a URL ("" when
// unparseable — never an error; routing must not fail a fetch).
func hostOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return u.Host
}

// pick chooses the target for attempt number attempt: candidates rotate by
// attempt index, skipping hosts whose breaker rejects the send. ok=false
// means every candidate short-circuited (the returned host names the last
// one tried).
func (c *Client) pick(candidates []string, attempt int, now time.Duration) (target, host string, br *breaker, ok bool) {
	n := len(candidates)
	for off := 0; off < n; off++ {
		target = candidates[(attempt+off)%n]
		host = hostOf(target)
		br = c.breakerFor(host)
		if br == nil {
			return target, host, nil, true
		}
		allowed, tr := br.allow(now)
		c.noteTransition(host, br, tr)
		if allowed {
			return target, host, br, true
		}
	}
	return target, host, nil, false
}

// hedgeDelay derives the hedge delay for a primary host: the host's
// observed request-latency quantile when metrics are on and history
// exists, floored by the policy delay.
func (c *Client) hedgeDelay(host string) time.Duration {
	d := c.hedge.Delay
	if c.reg != nil && host != "" {
		h := c.reg.Histogram(c.peerPrefix(host) + "request")
		if q := h.Quantile(c.hedge.Quantile); q > 0 {
			if qd := time.Duration(q); qd > d {
				d = qd
			}
		}
	}
	return d
}

// attemptResult is one once() outcome tagged with its target URL.
type attemptResult struct {
	body        []byte
	etag        string
	notModified bool
	err         error
	url         string
}

// onceHedged races one GET on primary against a delayed hedge on backup:
// the first success wins and the loser's context is cancelled. Both
// outcomes are awaited or cancelled before return, so no goroutine
// outlives the call beyond its cancelled HTTP round trip.
func (c *Client) onceHedged(ctx context.Context, rq request, primary, backup string, timeout time.Duration) attemptResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	launch := func(target string) {
		go func() {
			body, etag, nm, err := c.once(actx, rq, target, timeout)
			ch <- attemptResult{body: body, etag: etag, notModified: nm, err: err, url: target}
		}()
	}
	launch(primary)
	// Cap the hedge delay at half the attempt timeout: a delay at or past
	// the timeout could never fire before the primary gives up, making the
	// hedge useless exactly when the primary is slowest.
	delay := c.hedgeDelay(hostOf(primary))
	if cap := timeout / 2; delay > cap {
		delay = cap
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding := 1
	hedged := false
	var last attemptResult
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if hedged && r.url == backup {
					c.count(c.peerPrefix(hostOf(backup)), "hedge_wins")
				}
				return r
			}
			last = r
			if outstanding == 0 {
				return last
			}
			// One leg failed; the other is still running — wait it out.
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				c.count(c.peerPrefix(hostOf(backup)), "hedges")
				launch(backup)
			}
		}
	}
}
