package exchange

// Server lifecycle: liveness/readiness probes and graceful drain — the
// service side of the resilience contract (DESIGN.md §14).
//
//	GET /v1/healthz  → 200 while the process serves requests at all,
//	                   including while draining (liveness: "don't kill me,
//	                   I'm still finishing work").
//	GET /v1/readyz   → 200 only while new traffic should be routed here:
//	                   not draining and the assess queue below its shed
//	                   threshold (readiness: "send me work").
//	Server.Drain     → stop admitting, let in-flight coalesced flights
//	                   finish (force-cancelling them when the drain context
//	                   expires), flush the registry manifest.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"collabscope/internal/obs"
)

// Drain gracefully shuts the service down. It flips readiness to 503 so
// load balancers stop routing here, refuses new mutating work
// (POST /v1/models, POST /v1/assess) with 503 + Retry-After and error code
// CodeDraining, waits for in-flight assess flights to finish — or
// force-cancels them when ctx expires — and flushes the registry manifest
// to the checkpoint store. GET routes keep serving throughout and after,
// so peers can still harvest models from a draining hub.
//
// Drain is idempotent: concurrent and repeated calls share one drain and
// return its outcome. A nil return means every in-flight flight completed
// and the registry is flushed; a non-nil return means the drain context
// expired first and the stragglers were cancelled.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		defer close(s.drainDone)
		s.drainErr = s.drain(ctx)
	})
	<-s.drainDone
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	reg := s.reg
	reg.Counter("server.drains").Inc()
	s.draining.Store(true)
	// An admit section that read draining=false may still be inside
	// assessMu; passing through the lock once guarantees every admitted
	// flight has joined the inflight WaitGroup before we wait on it.
	s.assessMu.Lock()
	_ = s.active
	s.assessMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-ctx.Done():
		forced = true
		reg.Counter("server.drain_forced").Inc()
		s.computeCancel()
		<-done
	}
	if err := s.flushRegistry(); err != nil {
		return err
	}
	if forced {
		return fmt.Errorf("exchange: drain deadline hit, in-flight work force-cancelled: %w", context.Cause(ctx))
	}
	return nil
}

// flushRegistry re-persists the registry manifest (model cells are written
// through at publish time), so a restart reloads exactly the models the
// draining server held.
func (s *Server) flushRegistry() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store == nil {
		return nil
	}
	man := s.manifestLocked()
	if err := s.store.Save(manifestKey, &man); err != nil {
		return fmt.Errorf("exchange: flush registry manifest: %w", err)
	}
	return nil
}

// rejectDraining answers work refused because the server is draining:
// 503 + Retry-After, error code CodeDraining — the client's cue to fail
// over to another replica.
func (s *Server) rejectDraining(w http.ResponseWriter, reg *obs.Registry) {
	reg.Counter("service.drain_rejects").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.admission.RetryAfterSeconds))
	writeV1Error(w, http.StatusServiceUnavailable, CodeDraining,
		"server draining, retry against another replica")
}

// serveHealth answers GET /v1/healthz (ready=false: liveness, always 200)
// and GET /v1/readyz (readiness: 503 while draining or while the assess
// queue sits at its shed threshold).
func (s *Server) serveHealth(w http.ResponseWriter, ready bool) {
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		_ = json.NewEncoder(w).Encode(HealthResponse{Status: "ok"})
		return
	}
	checks := make(map[string]string)
	status := "ok"
	httpStatus := http.StatusOK
	if s.draining.Load() {
		checks["lifecycle"] = "draining"
		status, httpStatus = "draining", http.StatusServiceUnavailable
	} else {
		checks["lifecycle"] = "serving"
	}
	s.mu.RLock()
	models := 0
	for _, sp := range s.tenants {
		models += len(sp.models)
	}
	checks["registry"] = fmt.Sprintf("loaded (%d models, generation %d, persisted=%t)",
		models, s.generation, s.store != nil)
	s.mu.RUnlock()
	s.assessMu.Lock()
	active := s.active
	s.assessMu.Unlock()
	if s.admission.QueueDepth > 0 && active >= s.admission.QueueDepth {
		checks["admission"] = fmt.Sprintf("saturated (%d/%d in flight)", active, s.admission.QueueDepth)
		if status == "ok" {
			status, httpStatus = "overloaded", http.StatusServiceUnavailable
		}
	} else {
		checks["admission"] = fmt.Sprintf("ok (%d/%d in flight)", active, s.admission.QueueDepth)
	}
	checks["pool"] = fmt.Sprintf("ok (worker bound %d, 0 = GOMAXPROCS)", s.workers)
	w.WriteHeader(httpStatus)
	_ = json.NewEncoder(w).Encode(HealthResponse{Status: status, Checks: checks})
}

// deadlineBudget reads the client's advertised per-attempt budget from the
// deadline header; ok=false when absent or malformed (both mean "no
// advice", never an error). A count of milliseconds beyond what a
// time.Duration holds saturates instead of wrapping, so a huge budget
// never reads as a spent one.
func deadlineBudget(r *http.Request) (time.Duration, bool) {
	v := strings.TrimSpace(r.Header.Get(DeadlineHeader))
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	const most = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > most:
		return math.MaxInt64, true
	case ms < -most:
		return math.MinInt64, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// shedDeadline decides whether an advertised budget is unmeetable: gone
// entirely, or below the observed median assess latency — in which case
// answering would burn a worker-pool pass on a verdict the client has
// already abandoned.
func (s *Server) shedDeadline(reg *obs.Registry, budget time.Duration) bool {
	if budget <= 0 {
		return true
	}
	p50 := time.Duration(reg.Histogram("service.assess").Quantile(0.5))
	return p50 > 0 && budget < p50
}
