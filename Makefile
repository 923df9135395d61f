GO ?= go

# staticcheck is pinned so every machine runs the same analysis.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: ci fmt-check vet staticcheck build test test-benchmark race fuzz tally repin loc loc-check doc-check bench-check

# ci is the gate: formatting, static checks, the executor's line cap,
# the documents' line caps, build, tests (the root module's and the benchmark module's), the
# race-detector pass over the concurrent surfaces, and a short-budget fuzz
# of the fault plane, the front end, the lane-wise span chunks, the two
# executors and the VM's free list.
ci: fmt-check vet staticcheck loc-check doc-check build test test-benchmark race fuzz

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The pinned tool is fetched on demand with `go run`. In a sandbox with
# no network the fetch fails with a resolver/dial error; that (and only
# that) is detected and skipped, so the target still gates real findings
# wherever the tool is fetchable — CI always runs it for real.
staticcheck:
	@out=$$($(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ] && echo "$$out" | grep -qE 'dial tcp|no such host|connection refused|i/o timeout|proxyconnect'; then \
		echo "staticcheck: skipped (no network to fetch the pinned tool)"; \
	else \
		if [ -n "$$out" ]; then echo "$$out"; fi; exit $$status; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own module (it links the repo's internal packages
# through a replace directive), so the root `go test ./...` never builds
# it: vet and test it here.
test-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The experiment runner, the metrics registry (sources over atomics
# bumped by eight goroutines while others snapshot and merge; core runs
# merging into one shared registry while another goroutine snapshots it,
# the runner's pattern), a shared exec.Artifact
# bound from several goroutines, the stash slots that carry memory from
# run to run (internal/stash: vm's frame slab and stripefs's free lists,
# which every core run and every tenant server takes at its start and puts
# back at its end; core runs from four goroutines at mixed sizes, and file
# systems on all three tiers are built, driven and recycled from several
# goroutines) with the device engine under them, and the profile
# recorder/artifact are the concurrent or process-wide surfaces, and so
# are the compile stages' stashes (the front end's parser, the printer's
# buffer, the analysis, the compiler's transform and the executor's
# kcompiler are each kept for the next call, and four goroutines compile
# at once in TestConcurrentCompiles), and each NAS App's image of its
# seeded data set, which concurrent runs share (four goroutines run FFT at
# once in TestConcurrentSeeds); run them
# (and the packages they drive) under the race detector. internal/exec
# runs -short: its system-level differentials are one goroutine each and
# run at full length in test, so the race pass keeps their smoke
# cells only. Of internal/nas only the concurrent tests run: the race
# detector changes what the allocation budget counts.
race:
	$(GO) test -race ./internal/bench/... ./internal/sim/... ./internal/core/... ./internal/obs/... ./internal/tenant/ ./internal/vm/ ./internal/stripefs/ ./internal/disk/ ./internal/profile/ .
	$(GO) test -race ./internal/stash/ ./internal/lang/ ./internal/ir/ ./internal/locality/ ./internal/compiler/
	$(GO) test -race ./internal/nas/ -run 'TestConcurrentCompiles|TestConcurrentSeeds'
	$(GO) test -race -short ./internal/exec/

# fuzz runs the five fuzzers briefly, each for FUZZTIME: arbitrary fault
# profiles through a small kernel, asserting termination and
# byte-identical results; arbitrary source text through the front end,
# asserting that lang.Parse returns and that whatever it accepts
# resolves, compiles and assembles without a panic; random affine
# page-run loop bodies on small pages, asserting the bytecode — lane-wise
# chunks included — is tick-identical to the oracle; and arbitrary
# source text that parses into a small program, run original and
# prefetching on the bytecode and on the oracle, asserting the same
# simulation or the same trap; and random pushes at either end, rescues
# and pops on the VM's free list, asserting the order of a plain slice
# and the pool's invariants after every step (FUZZTIME=5m for a real
# session).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/fault/ -run '^$$' -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lang/ -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzSpanLanes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzExecutors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -run '^$$' -fuzz FuzzFreeQueue -fuzztime $(FUZZTIME)

# tally builds the executor with its dispatch tally (build tag exectally)
# and runs the deterministic judge of host work: the bytecode dispatches
# of the 16 scale-1 NAS runs, held per run to
# internal/bench/testdata/dispatch.golden, with each run's top opcodes
# printed (DESIGN.md §11).
tally:
	$(GO) test -tags exectally ./internal/bench/ -run TestDispatchCorpus -count 1 -v

# repin re-records every pinned value: each test that holds its output to
# a record under internal/*/testdata runs with internal/golden's -update,
# the one flag that rewrites records. It then prints what moved: the
# records' `git diff --stat`, and a word diff that shows each moved
# field's old and new value. Use it only for a change meant to move a
# pin, and explain every moved cell. The packages are listed because a
# test binary that does not import internal/golden rejects -update; the
# exec differentials run first because they write the oracle records the
# harness's tests read.
RECORDS = internal/*/testdata internal/fault/harness/testdata
repin:
	$(GO) test ./internal/exec/ -run 'TestFastPathEquivalence|TestBytecodePinned' -count 1 -update
	$(GO) test ./internal/fault/harness/ ./internal/nas/ ./internal/core/ ./internal/bench/ ./internal/tenant/ ./internal/locality/ ./internal/lang/ \
		./internal/obs/ ./internal/vm/ ./internal/stripefs/ ./internal/disk/ ./internal/profile/ -count 1 -update \
		-run 'TestFastPathEquivalence|TestRequeueGolden|TestProfileRecordingPinnedArtifacts|TestSpanUserOpsShare|TestPrintPinned|TestCompileAllocBudget|TestTraceGolden|TestMetricsGolden|TestDepartureWithReadsInFlight|TestRefsGolden|TestParseRecord|TestBenchmarkAllocs|TestTenantAllocBudget|TestRunObservabilityAllocBudget|TestRecycleAllocs|TestSeedSharesImage'
	$(GO) test -tags exectally ./internal/bench/ -run TestDispatchCorpus -count 1 -update
	@git diff --stat -- $(RECORDS)
	@git diff -U0 --word-diff -- $(RECORDS)

# loc prints the two numbers every simplicity PR reports: lines of
# non-test Go outside benchmark/, per internal/* package and in total.
loc:
	@for d in internal/*/; do \
		printf '%7d %s\n' $$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) $${d%/}; \
	done
	@printf '%7d total (non-test Go outside benchmark/)\n' \
		$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)

# loc-check fails when a package holds more lines of non-test Go than its
# cap in LOC_CAPS, counted the way loc counts them: internal/exec's is the
# cap ROADMAP items 2 and 9 set on the executor; internal/vm's and
# internal/stripefs's hold what replacing their hand-written recyclers
# with internal/stash's one slot removed.
LOC_CAPS = internal/exec:4000 internal/vm:1956 internal/stripefs:594
loc-check:
	@fail=0; for c in $(LOC_CAPS); do \
		n=$$(find $${c%:*} -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
		echo "$${c%:*}: $$n lines of non-test Go (cap $${c#*:})"; \
		if [ $$n -gt $${c#*:} ]; then echo "$${c%:*}: over its cap"; fail=1; fi; \
	done; exit $$fail

# doc-check fails when DESIGN.md or EXPERIMENTS.md is longer than its cap:
# the ratchet of ROADMAP item 8. A change that cuts a document lowers its
# cap; one that needs more room deletes it elsewhere.
DESIGN_MAX = 1427
EXPERIMENTS_MAX = 1606
doc-check:
	@fail=0; for d in DESIGN.md:$(DESIGN_MAX) EXPERIMENTS.md:$(EXPERIMENTS_MAX); do \
		n=$$(wc -l < $${d%:*}); echo "$${d%:*}: $$n lines (cap $${d#*:})"; \
		if [ $$n -gt $${d#*:} ]; then echo "$${d%:*}: over its cap"; fail=1; fi; \
	done; exit $$fail

# bench-check is CI's host-time gate: scripts/bench-pair.sh runs each
# workload of the end-to-end benchmark on the base (the merge base with
# origin/main, or HEAD~1 on main) and on this tree in three alternating
# pairs, judges each pair with benchmark/'s -compare (IQR verdict,
# BENCHMARK.json bounds) and fails a workload whose three pairs all fail.
# Allocation counts are exact cells under internal/*/testdata, held by
# `make test`.
bench-check:
	bash scripts/bench-pair.sh
