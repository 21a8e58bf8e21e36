GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: build test check vet race bench bench-smoke bench-gate bench-gate-zero bench-campaign bench-campaign-smoke bench-pairs fmt lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also covers bench/, a module of its own that the root ./... does not
# reach: an API the campaign benchmark imports cannot change under it
# without failing here.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

race:
	$(GO) test -race ./...

# fmt fails when any file is not gofmt-clean, printing the offenders. Like
# the go tool and lint.Load it skips directories whose names start with "."
# or "_" (.bench_build/ holds generated files of interrupted benchmark
# builds), but it checks testdata/.
fmt:
	@out="$$(gofmt -l $$(find . -type d \( -name '.?*' -o -name '_*' \) -prune -o -name '*.go' -print))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the repo's invariant linter (DESIGN.md §10, §15): the driver
# type-checks the module's packages serially in dependency order and runs
# all ten checks module-wide. Exit 1 on any finding, exit 2 when any
# package fails to load (partial analysis never passes).
# TestLoadTimingGuard in internal/lint keeps the whole-module load inside
# its time budget and requires every package type-checked.
lint:
	$(GO) run ./cmd/excovery-lint ./...

# check is the tier-1 gate (see ROADMAP.md): formatting, static analysis
# (go vet plus the invariant linter) and the full suite under the race
# detector. Every shipped description is validated, planned, assembled and
# round-tripped by TestShippedDescriptions in internal/desc.
check: fmt vet lint race

# bench records all benchmarks (with allocations) as a dated JSON stream
# of go test events, comparable across sessions with excovery-bench or
# plain jq. It also appends a one-line Fig. 3 allocs/op delta against the
# newest prior BENCH_*.json to CHANGES.md.
bench:
	$(GO) test -json -run='^$$' -bench=. -benchmem ./... | tee BENCH_$(DATE).json
	@$(GO) run ./cmd/excovery-bench -changes BENCH_$(DATE).json >> CHANGES.md && tail -1 CHANGES.md

# bench-gate replays the gate CI runs: a fresh recording checked against
# bench-thresholds.json vs the newest committed BENCH_*.json. 20
# iterations amortize per-benchmark setup so allocs/op and B/op are
# comparable with the committed full-length recordings (-benchtime=1x
# would charge the whole setup to a single op); timing units are not
# gated.
bench-gate:
	$(GO) test -json -run='^$$' -bench=. -benchtime=20x -benchmem ./... > BENCH_gate.json
	@$(GO) run ./cmd/excovery-bench -check bench-thresholds.json BENCH_gate.json; \
		rc=$$?; rm -f BENCH_gate.json; exit $$rc

# bench-gate-zero is the hard part of the gate: the benchmarks whose ceiling
# in bench-thresholds.json is zero growth from zero — the allocation-free
# hot paths (steady-state delivery with capture off and on, registry
# heartbeat) — at an iteration count that amortizes their one-off set-up to
# below 1 B/op, which 20 iterations do not. Allocation counts do not depend
# on the runner, so CI fails on a breach.
bench-gate-zero:
	$(GO) test -json -run='^$$' -benchtime=200000x -benchmem \
		-bench='^(BenchmarkEmulatorDeliverySteadyState|BenchmarkRegistryHeartbeat)$$' \
		. ./internal/discovery > BENCH_gate.json
	@$(GO) run ./cmd/excovery-bench -check bench-thresholds.json BENCH_gate.json; \
		rc=$$?; rm -f BENCH_gate.json; exit $$rc

# bench-smoke runs every benchmark exactly once — no timings, just proof
# that none of them panic or fail. Wired into CI.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-campaign runs the repository's campaign benchmark (BENCHMARK.json,
# bench/README.md): every workload, untraced then traced, end-to-end and
# per-layer metrics. It is a module of its own, so `go test ./...` and the
# targets above do not reach it.
bench-campaign:
	bash bench/run.sh

# bench-campaign-smoke is the campaign benchmark's own test: every workload
# at a fraction of its size, output checks on. Wired into CI.
bench-campaign-smoke:
	$(GO) -C bench test ./...

# bench-pairs is the protocol behind a performance claim (bench/README.md):
# alternating parent/change pairs of one campaign workload, untraced, the
# side going first switched every pair. Prints every run, medians and
# quartiles of the four end-to-end metrics, pairs won and failed counts.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=sweep-emu [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { \
		echo "usage: make bench-pairs PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=1]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"
