# Development targets. `make ci` is the gate every change must pass: vet
# (including a gofmt cleanliness check), full build, full test suite, the
# race detector on the packages that exercise the lock-free machinery or
# hammer shared metrics, the tagged fault-injection chaos suite, the perf
# regression gate, the project static analyzers (cmd/sptrsvlint), a
# short fuzzing pass over the input parsers, and a build plus self-test of
# the separate perfbench module.

GO ?= go

.PHONY: ci vet build test cpus race chaos cover bench-launch bench-json perfgate lint bcecheck inlcheck escapecheck lint-update fuzz-short daemon-smoke cachecheck startup perfbench-check

ci: vet build test cpus race chaos daemon-smoke perfgate lint bcecheck inlcheck escapecheck fuzz-short cachecheck perfbench-check

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a separate module (perfbench/go.mod), so the root
# `go build ./...` never compiles it even though it links the library's
# internal packages; build it and run its self-tests.
perfbench-check:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) test ./...

# The packages whose tests compare solves bit for bit (DESIGN.md §6.5),
# run at 1, 2 and 4 Ps so a schedule-dependent result cannot hide behind
# the core count of the machine running the suite.
cpus:
	$(GO) test -count=1 -cpu 1,2,4 . ./internal/block ./internal/kernels ./internal/daemon

race:
	$(GO) test -race . ./internal/exec ./internal/kernels ./internal/block \
		./internal/core ./internal/metrics ./internal/bench ./internal/daemon \
		./internal/plancache ./internal/reqtrace

# Project-specific static analyzers (DESIGN.md §6.8): hot-path allocation
# discipline, atomic-field access, spin-loop guards, wall-clock placement,
# and dropped errors. The repo must stay finding-free.
lint:
	$(GO) run ./cmd/sptrsvlint ./...

# BCE invariant (DESIGN.md §6.9): recompile the hot packages with the
# compiler's bounds-check debug pass and fail if any //sptrsv:hotpath
# function carries more surviving checks than internal/lint/bce_allow.txt
# permits. After a reviewed kernel-shape change, refresh the allowlist
# with `go run ./cmd/sptrsvlint -bce -bce-update`.
bcecheck:
	$(GO) run ./cmd/sptrsvlint -bce

# Compiler-witness gates (DESIGN.md §6.13). inlcheck recompiles the hot
# packages with -gcflags=-m=2 and fails if any //sptrsv:hotpath function
# stopped inlining without a reviewed internal/lint/inl_allow.txt entry
# carrying the compiler's reason verbatim. escapecheck reads the same
# audit and fails on hot-path heap escapes beyond the sanctioned
# per-launch publication costs.
inlcheck:
	$(GO) run ./cmd/sptrsvlint -inl

escapecheck:
	$(GO) run ./cmd/sptrsvlint -escape

# Regenerate both compiler-witness allowlists from the current tree, then
# fail if they changed — a dirty result means an unreviewed drift between
# the committed allowlists and what the compiler actually does. Commit
# the regenerated files after reviewing the diff.
lint-update:
	$(GO) run ./cmd/sptrsvlint -bce -bce-update
	$(GO) run ./cmd/sptrsvlint -inl -inl-update
	git diff --exit-code internal/lint/bce_allow.txt internal/lint/inl_allow.txt

# Short deterministic-budget fuzzing pass over the two input parsers (the
# Matrix Market reader and the lint harness's want/ignore comment parsers)
# plus the differential kernel-equivalence fuzzer, which solves random
# triangular systems with every optimized kernel against the serial
# reference at both element types. Corpus finds land in testdata/fuzz and
# should be committed.
FUZZTIME ?= 10s

fuzz-short:
	$(GO) test -run - -fuzz FuzzReadMatrixMarket -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run - -fuzz FuzzParseWant -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run - -fuzz FuzzKernelEquivalence -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run - -fuzz FuzzPlanRoundTrip -fuzztime $(FUZZTIME) ./internal/block

# Fault-injection chaos suite: hooks compiled in under the faultinject tag
# drive panics, in-degree corruption, solution poisoning and worker delays
# through the guarded solve path.
chaos:
	$(GO) test -tags faultinject ./internal/faultinject ./internal/block ./internal/kernels \
		./internal/daemon

# Coverage gate for the solver core and the execution substrate. Floors
# sit ~10 points below the measured coverage so refactors have headroom
# while untested new subsystems still fail the gate.
COVER_FLOOR_BLOCK     ?= 80
COVER_FLOOR_EXEC      ?= 60
COVER_FLOOR_PLANCACHE ?= 80
COVER_FLOOR_REQTRACE  ?= 85
COVER_FLOOR_LINT      ?= 75

cover:
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-block.out ./internal/block
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-exec.out ./internal/exec
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-plancache.out ./internal/plancache
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-reqtrace.out ./internal/reqtrace
	$(GO) test -coverprofile=/tmp/blocksptrsv-cover-lint.out ./internal/lint
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-block.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/block coverage: %s (floor $(COVER_FLOOR_BLOCK)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_BLOCK)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-exec.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/exec coverage: %s (floor $(COVER_FLOOR_EXEC)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_EXEC)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-plancache.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/plancache coverage: %s (floor $(COVER_FLOOR_PLANCACHE)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_PLANCACHE)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-reqtrace.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/reqtrace coverage: %s (floor $(COVER_FLOOR_REQTRACE)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_REQTRACE)) exit 1 }'
	@$(GO) tool cover -func=/tmp/blocksptrsv-cover-lint.out | awk '$$1=="total:" \
		{ pct=$$3; sub(/%/,"",pct); printf "internal/lint coverage: %s (floor $(COVER_FLOOR_LINT)%%)\n", $$3; \
		  if (pct+0 < $(COVER_FLOOR_LINT)) exit 1 }'

# Machine-readable perf trajectory (DESIGN.md §6.7). bench-json runs the
# full canonical suite and refreshes the committed baseline; run it on a
# quiet machine after a deliberate perf change and commit the result.
# perfgate replays the short suite (one matrix per structural-class pair)
# against that baseline with a deliberately generous gate: it exists to
# catch order-of-magnitude mistakes deterministically in CI, not to
# referee single-digit noise. Both pin -scale so medians stay comparable.
BENCH_SCALE    ?= 0.1
BENCH_BASELINE ?= BENCH_baseline.json
PERFGATE_PCT   ?= 400

bench-json:
	@base_sha=$$(sed -n 's/.*"git_sha": *"\([0-9a-f]*\)".*/\1/p' $(BENCH_BASELINE) 2>/dev/null | head -1); \
	head_sha=$$(git rev-parse --short=12 HEAD 2>/dev/null); \
	if [ -n "$$base_sha" ] && [ -n "$$head_sha" ] && [ "$$base_sha" != "$$head_sha" ]; then \
		echo "bench-json: baseline was recorded at $$base_sha, HEAD is $$head_sha — this run refreshes it"; fi
	$(GO) run ./cmd/sptrsvbench -suite -scale $(BENCH_SCALE) -repeats 9 -warmup 2 \
		-json $(BENCH_BASELINE)

perfgate: startup
	$(GO) run ./cmd/sptrsvbench -suite -short -scale $(BENCH_SCALE) -repeats 3 -warmup 1 \
		-baseline $(BENCH_BASELINE) -gate $(PERFGATE_PCT) -json /tmp/blocksptrsv-perfgate.json

# Cold vs warm startup (DESIGN.md §6.11): cold Preprocess analysis vs a
# warm plan-cache load over the short suite corpus. Informational — the
# per-matrix warm-speedup target (5x) is reported, not enforced, because
# the ratio is machine- and scale-dependent; pass
# `-min-warm-speedup <x>` via cmd/sptrsvbench to make it a hard gate.
startup:
	$(GO) run ./cmd/sptrsvbench -startup -short -scale $(BENCH_SCALE) -repeats 3

# Corpus regeneration check: the committed pregenerated suite matrices
# under internal/bench/testdata/corpus must be byte-identical to what the
# fixed-seed generators produce. Guards both directions: a generator
# change without `matgen -emit-binary`, and a corpus edit by hand.
cachecheck:
	@tmp=$$(mktemp -d /tmp/blocksptrsv-cachecheck-XXXXXX); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/matgen -emit-binary -dir "$$tmp" >/dev/null && \
	diff -r internal/bench/testdata/corpus "$$tmp" && \
	echo "cachecheck: corpus regeneration is byte-identical"

# Daemon smoke (part of `make ci`): an in-process one-worker sptrsvd
# under a 2s concurrent burst must coalesce requests into multi-RHS
# batches (factor > 1) and answer every request without an error
# response, then drain cleanly. DESIGN.md §6.10.
daemon-smoke:
	$(GO) run ./cmd/sptrsvd -smoke

# Launch-latency microbenchmarks: the three launcher styles head to head.
bench-launch:
	$(GO) test -run - -bench 'LaunchOverhead|LevelSetLauncherStyles' \
		./internal/exec ./internal/kernels
