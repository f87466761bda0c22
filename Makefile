GO ?= go

.PHONY: all build test race vet fmt fuzz-smoke incremental-exactness chaos chaos-slo bench-smoke ci bench bench-parallel bench-compare lintobs cover serve-smoke encoder-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet covers the benchmark module too (bench/go.mod), which the root
# ./... pattern does not reach.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz-smoke runs short fuzzing passes over the surfaces exposed to
# untrusted peers: the model wire reader, the /v1 assess request
# decoder (both reachable via internal/exchange), and the remote
# encoder's response envelope.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadModelJSON -fuzztime=5s ./internal/core
	$(GO) test -run xxx -fuzz FuzzAssessRequestJSON -fuzztime=5s ./internal/exchange
	$(GO) test -run xxx -fuzz FuzzEncoderResponseJSON -fuzztime=5s ./internal/encoder

# incremental-exactness pins the incremental-maintenance contract
# (DESIGN.md §15): updated/downdated sufficient statistics must
# reproduce the from-scratch PCA fit within linalg.StatsFitTolerance, the
# rows-path refit must be bit-identical, AssessDelta verdicts must equal a
# full reassessment while re-scoring strictly fewer passes, every
# Algorithm 2 path must agree on seeded random schemas and churn, and the
# verdicts must keep Definition 4's metamorphic properties. Scoper and
# ModelState refits and AssessDelta run on the caller's worker pool, so
# the Jacobi SVD must give the same bits on 1–8 workers, twin Scopers at 1
# and 4 workers must agree after every churn step, and a reloaded
# ModelState must build the Scoper's models at 1 and 4 workers; the
# linalg, core and root lines run at -cpu 1,2,4, where GOMAXPROCS 1 under
# a multi-member Jacobi team proves that waits yield.
# A /v1/assess request decodes on the server's pool and every path scores
# through the fused reconstruction pass, so the decoder must agree with
# encoding/json at 1, 2, 3 and 4 workers, on plain rows and on every body
# that leaves the row walk, and the fused pass must equal the composed
# kernels bit for bit; those run at -cpu 1,2,4 too.
incremental-exactness:
	$(GO) test -count=1 -cpu 1,2,4 -run 'IncrementalExactness|Stats|Jacobi|ReconstructionPass|PCAReconstructionErrorsInto' ./internal/linalg
	$(GO) test -count=1 -cpu 1,2,4 -run 'RowWalkFallback|FuzzAssessRequestJSON' ./internal/exchange
	$(GO) test -count=1 -cpu 1,2,4 -run 'ScoperIncremental|ScoperHoldsStats|AssessDelta|ModelState' ./internal/core
	$(GO) test -count=1 -cpu 1,2,4 -run 'UpdateModelIncremental|AssessDeltaState|AssessmentPathsAgree|Definition4Metamorphic' .

# chaos runs the deterministic fault-injection suite: seed-driven injected
# errors, panics, delays, and payload corruption across the parallel pool,
# the exchange client/server, the remote encoder, and the dataset loaders
# (see DESIGN.md §9). CHAOS_SEED varies the corruption-sweep seeds without
# losing determinism. The pattern also matches TestChaosSLO, which reads no
# CHAOS_SEED; chaos-slo and the race run cover it, so it is skipped here.
CHAOS_SEED ?= 1
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 \
		-run 'Chaos|Injected|Corrupt|FaultInject|LoadHook|KilledMidRun' -skip TestChaosSLO \
		./internal/parallel ./internal/faultinject ./internal/exchange \
		./internal/encoder ./internal/schema ./internal/checkpoint \
		./internal/core ./internal/experiments

# chaos-slo runs the replicated-fleet chaos SLO harness (see DESIGN.md §14):
# a three-replica scoping fleet is driven through kill, restart, stall,
# corrupt, and drain schedules while the client fails over, hedges, and
# circuit-breaks. Asserts 100% availability, zero inconsistent verdicts,
# bit-identical post-restart ETags, typed drain refusals, and — via
# leakcheck — zero goroutine leaks after drain.
chaos-slo:
	$(GO) test -count=1 -run TestChaosSLO -v ./internal/experiments

# bench-smoke runs the benchmark module's own tests under the race
# detector: every workload at toy size with its output checks (verdict and
# pair digests against an independent reference, and the seed-1 goldens).
# The benchmark is a separate module (bench/go.mod), so the root
# `go test ./...` never reaches it.
bench-smoke:
	cd bench && $(GO) test -race ./...

# ci is the tier-1 verification gate: formatting, vet, the repository lint,
# the full test suite under the race detector, the wire-reader fuzz smoke,
# the encoder-backend conformance smoke, and the benchmark smoke.
ci: fmt vet lintobs race fuzz-smoke encoder-smoke bench-smoke

bench:
	$(GO) test -bench=. -benchmem

# Worker-pool before/after comparison (see DESIGN.md §7). Run on a
# multicore host to observe real speedup.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel(EncodeAll|MatchAll|Assess)' -cpu 1,4 .

# bench-compare gates performance regressions on the benchmark of record
# (bench/, bounded by BENCHMARK.json): every workload runs in 3 alternating
# pairs on the base commit BASE and on the working tree, and the target
# fails on a regressed verdict, an incorrect change-side run, or more failed
# operations than the base. The runs and the compare table are kept under
# .bench_compare/. See scripts/bench-compare.sh.
bench-compare:
	bash scripts/bench-compare.sh $(BASE)

# serve-smoke boots the scoping service end to end: upload through
# POST /v1/models into a persistent registry, assess through
# POST /v1/assess, restart over the same registry (verdicts must
# reproduce), and scrape /v1/metrics.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# encoder-smoke is the encoder-backend conformance gate: the remote stub
# and the local hash encoder must produce byte-identical signatures and
# scoping verdicts on OC3-FO, cold and warm, with warm reruns served
# entirely from the signature cache (zero requests).
encoder-smoke:
	$(GO) run ./cmd/encodersmoke

# lintobs enforces the repo's three lint rules (see cmd/lintobs): time.Now
# belongs to internal/obs (Stopwatch) so hot paths stay instrumentable and
# the disabled path stays zero-cost; per-pair linalg calls in nested loops
# use the blocked kernels; and every exported name under internal/ is named
# by some non-test file, so test-only surface cannot grow back.
lintobs:
	$(GO) run ./cmd/lintobs ./...

# cover enforces the ratcheted coverage floor: the floor only moves up as
# total coverage grows (raise it here and in .github/workflows/ci.yml).
COVER_MIN ?= 77.0
cover:
	$(GO) test -coverprofile=/tmp/cover.out ./...
	$(GO) tool cover -func=/tmp/cover.out | tail -1
	@total=$$($(GO) tool cover -func=/tmp/cover.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	ok=$$(awk -v t=$$total -v m=$(COVER_MIN) 'BEGIN{print (t>=m)?"yes":"no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "coverage $$total% is below the ratcheted minimum $(COVER_MIN)%"; exit 1; \
	else echo "coverage $$total% >= $(COVER_MIN)% (ratchet: raise COVER_MIN in .github/workflows/ci.yml when it grows)"; fi
