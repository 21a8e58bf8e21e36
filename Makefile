GO ?= go

.PHONY: build test check vet race science bench-campaign bench-campaign-smoke bench-pairs fmt lint

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

# science is the science gate (science_test.go): R and t_R of every result
# series EXPERIMENTS.md reports, at fixed seeds, against
# testdata/science.golden. The race build leaves the file out, so it runs
# here without the detector.
science:
	$(GO) test -run '^TestSciencePinned$$' .

# fmt fails when any file is not gofmt-clean, printing the offenders. Like
# the go tool and lint.Load it skips directories whose names start with "."
# or "_" (.bench_build/ holds generated files of interrupted benchmark
# builds), but it checks testdata/.
fmt:
	@out="$$(gofmt -l $$(find . -type d \( -name '.?*' -o -name '_*' \) -prune -o -name '*.go' -print))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the repo's invariant linter (DESIGN.md §10, §15): the driver
# type-checks the module's packages serially in dependency order and runs
# all six checks module-wide. Exit 1 on any finding, exit 2 when any
# package fails to load (partial analysis never passes).
# TestLoadTimingGuard in internal/lint keeps the whole-module load inside
# its time budget and requires every package type-checked.
lint:
	$(GO) run ./cmd/excovery-lint ./...

# check is the tier-1 gate (see ROADMAP.md): formatting, static analysis
# (go vet plus the invariant linter), the full suite under the race
# detector and the science gate. Every shipped description is validated,
# planned, assembled and round-tripped by TestShippedDescriptions in
# internal/desc.
check: fmt vet lint race science

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
# quartiles of the four end-to-end metrics, pairs won, a verdict per metric
# (gain, worse or unresolved, by the rule in scripts/bench-pairs.sh) and
# failed counts.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=sweep-emu [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { \
		echo "usage: make bench-pairs PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=1]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"
