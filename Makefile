GO ?= go
FUZZTIME ?= 10s

PARENT ?=
N ?= 10
SEED ?= 1

.PHONY: build test vet fmt-check race lint verify deadcode bench bench-module bench-hot bench-regress bench-sensitivity bench-pairs fuzz test-gotier test-avx2tier loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail (don't warn) when any file needs gofmt, matching the CI gate.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Static analysis beyond vet. staticcheck is not vendored; run it when
# installed (CI installs it), skip with a notice otherwise so verify
# works on a network-less box.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The hot-path packages carry the bit-identity and zero-alloc
# contracts; run them under the race detector too (nn holds the
# ParallelFor fan-out of the SLS gathers, embcache the lock-striped
# hot-row cache consulted by every planned gather, shard the
# hedged-fan-out client and loopback servers of the remote tier,
# sched/adapt the control loop that flips live batch policies under
# traffic, online the background train→quantize→swap updater,
# scenario the chaos harness that storms swaps against live load, and
# stack the bring-up that starts and stops all of those loops together).
race:
	$(GO) test -race ./internal/engine ./internal/tensor ./internal/nn ./internal/embcache ./internal/shard ./internal/sched/adapt ./internal/online ./internal/scenario ./internal/stack

# The system benchmark is a nested module (bench/go.mod, replace
# recsys => ../) that `./...` never sees; vet and test it here so that
# removing a root-module name it compiles against fails tier-1 rather
# than the benchmark run.
bench-module:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# Tier-1 verify recipe (see ROADMAP.md).
verify: fmt-check build test lint race bench-module

# Functions under internal/ that none of the 13 binaries (cmd/*,
# examples/*, the bench module) link: builds them without inlining,
# reads their symbols, and fails on any such function that
# tools/deadcode/keep.txt does not list with the reason it stays
# (DESIGN.md "Surface").
deadcode:
	$(GO) run ./tools/deadcode

# Full benchmark suite; also re-measures the guarded hot paths and
# writes them to BENCH_current.json for comparison against
# BENCH_baseline.json (see bench_regress_test.go).
bench:
	BENCH_JSON=BENCH_current.json $(GO) test -run TestBenchRegression -bench . -benchtime=1s .

# Just the regression gate (it also runs as part of `make test`).
bench-regress:
	BENCH_JSON=BENCH_current.json $(GO) test -run TestBenchRegression -v .

# The gate's sensitivity check: with http_decode_rmc2_b4 (the ID-run
# decoder) made 1.3× slower (BENCH_SLOWDOWN runs the case's own op
# again 30% of the time) the gate must fail that case on time, so this
# target succeeds only when it does. Of the gated cases, its ratio to
# its reference held steadiest across this host's stretches
# (EXPERIMENTS.md "A gate that reads the same every hour").
bench-sensitivity:
	@BENCH_SLOWDOWN=http_decode_rmc2_b4 $(GO) test -count=1 -run 'TestBenchRegression/http_decode_rmc2_b4$$' -v . \
		| tee /dev/stderr | grep -- '--- FAIL: TestBenchRegression/http_decode_rmc2_b4' >/dev/null \
		|| { echo "bench-sensitivity: a 1.3x slower http_decode_rmc2_b4 passed the gate" >&2; exit 1; }

# The system benchmark on PARENT and on the working tree in N
# alternating pairs, printed as the table EXPERIMENTS.md records for a
# performance change (tools/benchpairs; three workloads take about
# 100 s a pair and side, so ten pairs run for about an hour).
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<ref> [N=10] [SEED=1]" >&2; exit 2; }
	$(GO) run ./tools/benchpairs -parent $(PARENT) -n $(N) -seed $(SEED)

# Before/after numbers for the inference hot path (EXPERIMENTS.md,
# "Hot-path benchmarks").
bench-hot:
	$(GO) test -run xxx -bench 'BenchmarkGemm(Serial|Hot)|BenchmarkSLS|BenchmarkForward' -benchtime=1s .

# Fuzz smoke: each native fuzz target for FUZZTIME (go test allows one
# -fuzz pattern per invocation, so run them sequentially).
fuzz:
	$(GO) test -run xxx -fuzz FuzzValidateRequest -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run xxx -fuzz FuzzCheckpointLoad -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run xxx -fuzz FuzzRankRequestDecode -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run xxx -fuzz FuzzFloat32Token -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run xxx -fuzz FuzzGemmKernelEquiv -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/shard

# The kernel-bearing packages, the model and trainer whose one forward
# pass runs those kernels, and the engine whose ID-list decode the
# avx512 tier also dispatches, with dispatch forced to the pure-Go
# reference tier — the CI matrix leg that keeps the portable fallback
# green (see DESIGN.md "Kernel dispatch"). RECSYS_KERNEL is read in
# tensor's init, where go test's cache does not see it, so -count=1
# keeps a cached default-tier result from standing in for this leg.
test-gotier:
	RECSYS_KERNEL=go $(GO) test -count=1 ./internal/tensor ./internal/nn ./internal/model ./internal/train ./internal/engine

# The same packages with dispatch pinned to the YMM assembly tier: on
# AVX-512 hosts the default avx512 tier runs every full 16-row GEMM
# block through the ZMM kernel and every ID list through the 64-byte
# block step, and this leg keeps gemmKernel8x8's full-block path and
# idRun with the scalar ID step tested there (-count=1 as for
# test-gotier).
test-avx2tier:
	RECSYS_KERNEL=avx2 $(GO) test -count=1 ./internal/tensor ./internal/nn ./internal/model ./internal/train ./internal/engine

# Non-test source lines (.go and .s) per cmd/* and internal/* package
# directory, with the cmd, internal and overall totals: ROADMAP's
# recurring "net-negative LOC" criterion as one command. With
# BASE=<ref> (`make loc BASE=HEAD~2`) each row is that commit's count,
# the working tree's, and the difference: the table a PR description
# quotes.
loc:
	@{ find cmd internal -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' \
		| xargs wc -l | awk '$$2 != "total" { print "tree", $$1, $$2 }'; \
	if [ -n "$(BASE)" ]; then \
		git grep -c '' $(BASE) -- 'cmd/*.go' 'cmd/*.s' 'internal/*.go' 'internal/*.s' ':!*_test.go' \
			| awk -F: '{ print "base", $$NF, $$(NF-1) }'; \
	fi; } | awk -v base="$(BASE)" ' \
		function row(d) { return base == "" ? sprintf("%6d %s", n["tree", d], d) \
			: sprintf("%6d %6d %+6d %s", n["base", d], n["tree", d], n["tree", d] - n["base", d], d) } \
		{ k = split($$3, p, "/"); d = p[1]; for (i = 2; i < k; i++) d = d "/" p[i]; \
			dirs[d]; n[$$1, d] += $$2; n[$$1, p[1] " (total)"] += $$2; n[$$1, "cmd + internal"] += $$2 } \
		END { if (base != "") printf "%6s %6s %6s\n", base, "tree", "delta"; \
			sorter = "sort -k" (base == "" ? 2 : 4); \
			for (d in dirs) print row(d) | sorter; close(sorter); \
			print row("cmd (total)"); print row("internal (total)"); print row("cmd + internal") }'
