GO ?= go

# Benchmark knobs. BENCHTIME=100x keeps CI fast; use the default
# (wall-clock) locally for numbers worth comparing. BENCHCPU pins
# GOMAXPROCS because the contention benchmarks are meaningless with a
# single scheduler thread (nothing ever contends).
BENCHTIME ?= 300ms
BENCHCPU ?= 8

# Pinned staticcheck release; `go run` fetches exactly this version so
# CI and developers lint with identical rules. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1

# Pinned govulncheck release, same reproducibility rationale.
GOVULNCHECK_VERSION ?= v1.1.4

# fuzz-smoke budget per target; raise locally for real fuzzing
# campaigns (e.g. make fuzz-smoke FUZZTIME=5m).
FUZZTIME ?= 10s

.PHONY: all build test wal-stress lint vet fmt-check fmt bench bench-e2e bench-wal bench-check staticcheck opdaemonlint vuln fuzz-smoke loc

all: build lint fmt-check test

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run so inter-test state
# dependencies surface in CI instead of on a refactor years later; the
# failure log prints the seed for reproduction.
test:
	$(GO) test -race -shuffle=on ./...

# Repeats the WAL, flush and recovery tests under the race detector:
# the committer cycles once per fsync, so ticket/flush/rotate
# interleavings vary run to run and one pass samples only a few.
wal-stress:
	$(GO) test -race -count=20 -run 'WAL|Flush|Recover' ./internal/engine/

# lint is the single aggregate gate: vet for the compiler-adjacent
# checks, staticcheck for general Go correctness, opdaemonlint for the
# project's own concurrency and immutability contracts.
lint: vet staticcheck opdaemonlint

vet:
	$(GO) vet ./...

# Needs module-proxy network access on first run (the binary is cached
# afterwards); offline sandboxes should rely on the CI step instead.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The project's custom analyzers (opmutate, lockscope, ctxdiscipline,
# statustransition). Built from this repo, so it runs offline; see
# docs/static-analysis.md for what each analyzer enforces and how to
# suppress an intentional violation.
opdaemonlint:
	$(GO) run ./cmd/opdaemonlint ./...

# Known-vulnerability scan over the module graph and reachable calls.
# Needs network access for the vuln DB and the pinned tool download.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -run '^$$' ./internal/engine/

# End-to-end API benchmarks: router -> engine -> store -> envelope per
# request. Pair with `make bench` to tell an API-layer regression from
# a store-layer one. See docs/performance.md.
bench-e2e:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -run '^$$' ./internal/api/

# Durability-focused slice of the engine benchmarks: WAL store write
# paths plus cold recovery, with allocation counts — the codec and
# group-commit work lives or dies on bytes/op and allocs/op, so
# -benchmem is always on here. See docs/performance.md.
bench-wal:
	$(GO) test -bench 'WAL' -benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -run '^$$' ./internal/engine/

# perfbench is a separate module that embeds the daemon packages, so
# `go build ./...` and `go test ./...` at the root never compile it: a
# daemon change that breaks the benchmark's build passes both. This
# target vets and tests it from its own module.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Non-blank, non-comment Go lines under cmd/ and internal/, excluding
# tests and testdata: the code-size figure tracked beside ops/s.
loc:
	@find cmd internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
		| xargs cat | grep -cvE '^[[:space:]]*(//|$$)'

# Short coverage-guided fuzz runs over the untrusted-input parsers:
# the cursor values clients control, and the WAL replay path that
# must survive arbitrary on-disk bytes after a crash. One `go test
# -fuzz` invocation accepts a single target, hence one line per
# fuzzer; seed corpora alone also run as normal tests under `make
# test`.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzNoticesCursor$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/api/
	$(GO) test -fuzz '^FuzzListQueryCursor$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/api/
	$(GO) test -fuzz '^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/engine/
	$(GO) test -fuzz '^FuzzWALCodecBinary$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/engine/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .
