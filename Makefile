GO ?= go

# VERSION is stamped into internal/buildinfo.Version and surfaces as
# the simmr_build_info gauge on every -debug-addr endpoint.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -ldflags "-X simmr/internal/buildinfo.Version=$(VERSION)"

.PHONY: build test verify bench bench-guard bench-guard-ci bench-watch smoke-bigtrace smoke-ops smoke-cache clean

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: static checks, a full build, and the
# complete test suite under the race detector (the concurrency model's
# determinism tests only mean something with -race on).
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# bench regenerates BENCH_engine.json: replay events/sec, allocs per
# replay, and serial-vs-parallel capacity-sweep wall time. LDFLAGS stamp
# the version into the BENCH_history.jsonl record so `benchreport
# -watch` can name the commit range a drift entered in.
bench:
	$(GO) run $(LDFLAGS) ./cmd/benchreport -o BENCH_engine.json

# bench-guard reruns the replay benchmark and fails if allocations per
# replay regressed more than 5% or events/sec dropped more than 10%
# against BENCH_engine.json. Allocations are counted after a fixed
# warm-up over a fixed number of replays; events/sec is compared only
# when the baseline's host fingerprint matches this host (elsewhere the
# host-independent speedup ratios stand in). Keeps the pooled replay
# hot path fast and the disabled observability path free.
bench-guard:
	$(GO) run $(LDFLAGS) ./cmd/benchreport -guard -o BENCH_engine.json

# bench-guard-ci is the smoke variant for shared CI runners: the
# allocation bound is deterministic and stays exact, but wall-clock on
# a contended runner is too noisy for the 0.90 floor, so the throughput
# check only catches collapses (>50% regression).
bench-guard-ci:
	$(GO) run ./cmd/benchreport -guard -floor 0.5 -history "" -o BENCH_engine.json

# bench-watch runs no benchmarks: it analyzes BENCH_history.jsonl for
# rolling-median regressions — drift that stays inside the guard's
# per-run tolerance but compounds across runs. Exits nonzero when the
# newest logged run degraded any metric >10% vs the median of the five
# runs before it.
bench-watch:
	$(GO) run ./cmd/benchreport -watch

# smoke-bigtrace is the large-trace end-to-end check: stream-generate
# 100k jobs straight to the columnar .strc store (the full trace is
# never held in memory), inspect it, and replay it mmapped under a
# 256 MiB memory ceiling — proving load and replay memory stay bounded
# by job count and unique-template volume, not task-duration volume.
# CI runs this as the bigtrace-smoke job.
smoke-bigtrace:
	$(GO) run ./cmd/tracegen -kind multitenant -n 100000 -format bin -stream -pool 256 -out /tmp/smoke-big.strc
	$(GO) run ./cmd/simmr trace info -trace /tmp/smoke-big.strc
	GOMEMLIMIT=256MiB $(GO) run ./cmd/simmr -trace /tmp/smoke-big.strc -policy minedf
	rm -f /tmp/smoke-big.strc

# smoke-ops is the live ops-plane end-to-end check: run a real sweep
# with the debug server up, then prove the run registry, SSE progress
# stream, health/buildinfo endpoints, and bench-watch all answer. CI
# runs this as the ops-smoke job.
smoke-ops: build
	./scripts/ops_smoke.sh

# smoke-cache is the replay-result-cache end-to-end check: the same
# 1000-job sweep twice against one -cache-dir — the cold pass all
# misses, the warm pass 100% hits, byte-identical output, and
# measurably faster. CI runs this as the cache-smoke job.
smoke-cache: build
	./scripts/cache_smoke.sh

clean:
	rm -f BENCH_engine.json
