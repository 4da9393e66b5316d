# The tier-1 gate: everything `make ci` runs must stay green on every
# commit (see ROADMAP.md). The emvet step keeps the example corpus clean
# under the mobility-soundness analyzer on every ISA; the emtrace and
# benchjson smokes keep the observability exports loadable.

GO ?= go

.PHONY: ci fmt build test vet emvet docflags race emtrace-smoke benchjson-smoke bench-smoke chaos-smoke par-smoke fuzz-smoke pta-smoke auto-smoke dir-smoke jit-smoke perfbench-smoke bench-baselines

ci: fmt vet build race emvet docflags emtrace-smoke benchjson-smoke bench-smoke chaos-smoke par-smoke fuzz-smoke pta-smoke auto-smoke dir-smoke jit-smoke perfbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean. git ls-files keeps the
# benchmark's build directory (.bench_build/, module sources) out of scope.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

emvet:
	$(GO) run ./cmd/emvet examples/programs/*.em

# Every flag the docs show after a command name (`emrun -dir 3`,
# `embench -baseline .`, ...) must be one that command's -h lists. A
# command's words run to the end of the line or code span, or a pipe,
# redirection or comment.
docflags:
	mkdir -p .ci/bin
	$(GO) build -o .ci/bin/ ./cmd/...
	set -e; for cmd in emrun emtrace embench emvet emc; do \
		.ci/bin/$$cmd -h > .ci/$$cmd.help 2>&1 || true; \
		for f in $$(grep -ohE "\b$$cmd( +[^ \`|>#]+)+" README.md DESIGN.md EXPERIMENTS.md | \
				grep -oE ' -[A-Za-z][A-Za-z0-9_-]*' | sort -u); do \
			grep -qE "^ +$$f([[:space:]]|$$)" .ci/$$cmd.help || \
				{ echo "docflags: $$cmd $$f is named in the docs but not in $$cmd -h"; exit 1; }; \
		done; \
	done

# A Chrome trace of the kilroy tour must export and parse as JSON.
emtrace-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emtrace -chrome .ci/kilroy_trace.json -metrics .ci/kilroy_metrics.json examples/programs/kilroy.em
	$(GO) run ./tools/jsoncheck .ci/kilroy_trace.json .ci/kilroy_metrics.json

# embench table1 must write parseable BENCH_table1.json, and the fresh
# simulated metrics must stay within 20% of the committed baseline (the
# simulation is deterministic, so real drift means a behavior change;
# refresh deliberately with `make bench-baselines`).
benchjson-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/embench -out .ci -baseline . table1 > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_table1.json

# Every Go benchmark must still run (one iteration): keeps the benchmark
# corpus and its AllocsPerRun/metric plumbing from bit-rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Adaptive placement: the policy study must reproduce its committed
# BENCH_auto.json baseline (greedy-colocate collapsing remote traffic,
# batched cohort moves costing fewer wire bytes per object than singles),
# and the decision logs on the example corpus must match their goldens —
# including load-balance deciding nothing on the pinned-journal workload.
auto-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/embench -out .ci -baseline . auto > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_auto.json
	$(GO) run ./cmd/emrun -auto greedy-colocate -auto-log examples/programs/zipf_hot.em 2> .ci/auto_greedy.log > /dev/null
	cmp testdata/auto_greedy.golden .ci/auto_greedy.log
	$(GO) run ./cmd/emrun -auto load-balance -auto-log examples/programs/fixed_pool.em 2> .ci/auto_lb.log > /dev/null
	cmp testdata/auto_lb.golden .ci/auto_lb.log

# The kilroy tour with the replicated directory armed must print exactly
# what the directory-off run prints — clean, with read leases on, and
# under the chaos-smoke fault plan — and the directory overhead study
# must match its committed baseline.
dir-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emrun examples/programs/kilroy.em > .ci/kilroy_dir_off.out
	$(GO) run ./cmd/emrun -dir 3 examples/programs/kilroy.em > .ci/kilroy_dir_on.out
	cmp .ci/kilroy_dir_off.out .ci/kilroy_dir_on.out
	$(GO) run ./cmd/emrun -dir 3 -dir-lease 2000000 examples/programs/kilroy.em > .ci/kilroy_dir_lease.out
	cmp .ci/kilroy_dir_off.out .ci/kilroy_dir_lease.out
	$(GO) run ./cmd/emrun -dir 3 -chaos 'seed=7,drop=0.05,dup=0.03,delay=0.05:500us,corrupt=0.02,crash=2@76ms:156ms' \
		examples/programs/kilroy.em > .ci/kilroy_dir_chaos.out
	cmp .ci/kilroy_dir_off.out .ci/kilroy_dir_chaos.out
	$(GO) run ./cmd/embench -out .ci -baseline . dir > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_dir.json

# The dispatch-tier study: legacy / predecode / fused superinstructions
# must agree on every simulated observable, and the deterministic fields
# of BENCH_jit.json (instrs, cycles, fused run structure) must match the
# committed baseline. The emulated-MIPS fields are host wall-clock and
# carry the "host" prefix the comparator skips.
jit-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/embench -out .ci -baseline . jit > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_jit.json

# The repository benchmark's vet and own tests (generator oracle vs
# interpreter, seed determinism, BENCHMARK.json agreement). perfbench is a
# nested module, so the root `go vet ./...` and `go test ./...` never
# reach it.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the committed BENCH_*.json baselines (run after a deliberate
# model change, then commit the diff).
bench-baselines:
	$(GO) run ./cmd/embench table1 > /dev/null
	$(GO) run ./cmd/embench fig2 > /dev/null
	$(GO) run ./cmd/embench conv > /dev/null
	$(GO) run ./cmd/embench auto > /dev/null
	$(GO) run ./cmd/embench dir > /dev/null
	$(GO) run ./cmd/embench jit > /dev/null

# The kilroy tour under a seeded fault plan — 5% drops, duplicates,
# delays, corruption and a mid-tour crash/restart of node 2 — must print
# exactly what the fault-free run prints (crash-tolerant migration).
chaos-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emrun examples/programs/kilroy.em > .ci/kilroy_clean.out
	$(GO) run ./cmd/emrun -chaos 'seed=7,drop=0.05,dup=0.03,delay=0.05:500us,corrupt=0.02,crash=2@76ms:156ms' \
		examples/programs/kilroy.em > .ci/kilroy_chaos.out
	cmp .ci/kilroy_clean.out .ci/kilroy_chaos.out

# Every example program must print identical output under the sequential
# and parallel engines, with the parallel driver under the race detector;
# the in-package differential (also -race) additionally compares event
# logs, metrics, spans, cycle/instruction counts and memory images across
# every ISA and the Figure 1 network, and checks for leaked goroutines.
par-smoke:
	mkdir -p .ci
	set -e; for p in examples/programs/*.em; do \
		name=$$(basename $$p .em); \
		$(GO) run ./cmd/emrun $$p > .ci/$$name.seq.out; \
		$(GO) run -race ./cmd/emrun -parallel $$p > .ci/$$name.par.out; \
		cmp .ci/$$name.seq.out .ci/$$name.par.out; \
	done
	$(GO) test -race ./internal/core -run TestParallelDifferential

# The wire decoder fuzz seeds (bounds-checked frame/message parsing) must
# hold; full fuzzing runs separately with -fuzz.
fuzz-smoke:
	$(GO) test -run FuzzMsgDecode ./internal/wire

# The points-to object-graph report must build for the whole corpus, find
# at least one group-migration cohort in producer_consumer, and be
# byte-identical across repeated solves (ptacheck re-solves 5x).
pta-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emvet -graph examples/programs/*.em > .ci/pta_graph.out
	grep -q '^cohort ' .ci/pta_graph.out
	$(GO) run ./cmd/emvet -graph examples/programs/producer_consumer.em | grep -q '^cohort '
	$(GO) run ./tools/ptacheck examples/programs/*.em
