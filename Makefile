# Tier-1 verification and benchmark recording.

.PHONY: verify bench bench-smoke test vet lint race profile

# verify is the tier-1 flow: vet, lint, build, the full test suite, and
# the race detector over the concurrent sweep harness, the sweep
# service, and the cell store.
verify: vet lint test race

vet:
	go vet ./...

# lint runs the repository's own analyzer suite (detlint, allocfree,
# statescope, cyclepure, idsafe, memocoherent, guardedby, golife,
# atomicfs) over the tree through the go vet driver, so results are
# cached per package like any vet check.
lint: bin/smtlint
	go vet -vettool=$(abspath bin/smtlint) ./...

bin/smtlint: FORCE
	go build -o bin/smtlint ./cmd/smtlint

.PHONY: FORCE
FORCE:

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/sweep/... ./internal/sweepd/... ./internal/cellstore/...

# bench records the hot-path benchmarks (end-to-end machine + issue
# queue, with -benchmem, 5 samples) to $(BENCH_OUT). Override the
# artifact per PR: `make bench BENCH_OUT=BENCH_PR6.json`. The script
# refuses to record from a tree that fails `make lint`.
BENCH_OUT ?= BENCH.json
bench:
	scripts/bench.sh $(BENCH_OUT)

# bench-smoke runs the benchmark's own smoke test (smtbench is a separate
# module, so the root `go test ./...` never sees it): every workload at a
# tiny size, its checks, the metric names BENCHMARK.json declares, and
# the A/B harness's verdict logic.
bench-smoke:
	cd smtbench && go test .

# profile runs the Table 1 reference workload under the CPU and
# allocation profilers and prints the hottest functions — the first stop
# when attacking the busy-cycle cost model of DESIGN.md §12. Override
# the instruction budget with PROFILE_N, flags with PROFILE_FLAGS.
PROFILE_N ?= 2000000
PROFILE_FLAGS ?= -bench equake,twolf,gcc,gzip -iq 64 -sched 2op-ooo-dispatch
profile:
	go build -o bin/smtsim ./cmd/smtsim
	bin/smtsim $(PROFILE_FLAGS) -n $(PROFILE_N) -cpuprofile cpu.prof -memprofile mem.prof
	go tool pprof -top -nodecount 25 bin/smtsim cpu.prof
