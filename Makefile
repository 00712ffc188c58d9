GO ?= go

.PHONY: all build test race check bench fmt lint chaos

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with cross-goroutine surface —
# the same list scripts/check.sh races: internal/obs (registries read
# while the simulator writes), internal/core (hot-path atomic counters),
# internal/runner (the parallel trial executor; its determinism tests
# double as race proof), and internal/store + internal/ring (the sharded
# real-UDP server and its SPSC queues).
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/runner/... \
		./internal/store/... ./internal/ring/...

# The CI gate: gofmt, vet, build, full tests, race pass.
check:
	sh scripts/check.sh

# Micro- and figure benchmarks; the repo's one perf series is
# BENCHMARK.json, run with `go run ./bench/e2e`.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

fmt:
	gofmt -w .

# The CI gate plus the optional lint pass (staticcheck + govulncheck,
# installed on demand; skipped gracefully when offline).
lint:
	CI_LINT=1 sh scripts/check.sh

# A quick chaos campaign sweep: 20 seeds, both consistency modes, the
# default fault profile, fanned across every core (-parallel 0); the
# verdicts are byte-identical to a sequential run. Violations dump
# chaos-<seed>.json repros.
chaos:
	$(GO) run ./cmd/redplane-chaos -campaigns 20 -seed 1 -parallel 0
