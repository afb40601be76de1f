# Build/verify entry points. The bench target is the allocation
# regression gate CI runs: it measures the in-process (network-free)
# benchmarks 5 times, snapshots each run as BENCH_<n>.json, and fails
# when allocs/op on a gated hot-path benchmark regresses >10% over the
# checked-in bench_baseline.json. Refresh the baseline with
# `make bench-baseline` after an intentional change and commit it.

GO        ?= go
BENCH     ?= EngineInProcess|FleetInProcess|OracleJudge|MonitorNote|WhiteBoxPosterior|JSONDecodeReply
COUNT     ?= 5
BENCHTIME ?= 1000x
GATED      = EngineInProcess/live-shape-oldonly,EngineInProcess/live-shape-parallel,FleetInProcess/fleet-routed-json,EngineInProcess/observation-large,OracleJudge/back-to-back-64k-differ,EngineInProcess/old-only-fastpath,EngineInProcess/old-only-fastpath-journaled,EngineInProcess/json-fastpath,EngineInProcess/parallel,EngineInProcess/observation-publish,EngineInProcess/observation-publish-warm,WhiteBoxPosterior/scenario-grid-advancing,WhiteBoxPosterior/scenario-grid-n0,WhiteBoxPosterior/scenario-grid-n6000,WhiteBoxPosterior/scenario-grid-n1e6,FleetInProcess/fleet-routed,MonitorNote/interned,OracleJudge/fault-only,OracleJudge/header-truth,OracleJudge/reference(1.0),OracleJudge/back-to-back,OracleJudge/omission,JSONDecodeReply/0.4KB,JSONDecodeReply/64KB

# The soak target runs the chaos-scenario suite end to end under the
# race detector: a real fleet over TCP with fault-injected releases,
# closing with the duration-based soak scenario (goroutine/heap/RSS
# bounds). SOAK_DURATION scales the soak scenario; CI uses a short
# duration on PRs and a longer one on the schedule.
SOAK_DURATION ?= 20s
SOAK_OUT      ?= .

# The fuzz target gives each network-facing parser's fuzz function — the
# envelope scanner, the JSON validator and the JSON comparator against
# their encoding/xml and encoding/json references among them — and
# FuzzPosteriorFrom, the posterior's frontier pass against its full pass,
# a short budget (go test runs one -fuzz target per invocation). A
# crasher is written under the package's testdata/fuzz/ — commit it: from
# then on it runs as a seed in every plain `go test`. Minimisation is
# capped because the seed corpora have 64 KB documents, and the default
# minute spent shrinking one would be the whole budget.
FUZZTIME ?= 20s

.PHONY: test vet lint bench bench-run bench-baseline bench-module clean-bench soak fuzz

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# lint is the required CI gate: formatting, go vet, and the project's
# invariant analyzers (poolcheck, boundedread, ctxhygiene, detrand,
# noalloc — see the Invariants section of DESIGN.md and cmd/wsuvet).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/wsuvet ./...

soak:
	$(GO) run -race ./cmd/loadgen -scenario corrupt-never-wins -out $(SOAK_OUT)/soak-corrupt.json
	$(GO) run -race ./cmd/loadgen -scenario corrupt-never-wins-json -out $(SOAK_OUT)/soak-corrupt-json.json
	$(GO) run -race ./cmd/loadgen -scenario omission-convergence -out $(SOAK_OUT)/soak-omission.json
	$(GO) run -race ./cmd/loadgen -scenario mixed-fault -out $(SOAK_OUT)/soak-mixed.json
	$(GO) run -race ./cmd/loadgen -scenario crash-restart -out $(SOAK_OUT)/soak-crash.json
	$(GO) run -race ./cmd/loadgen -scenario crash-recovery -out $(SOAK_OUT)/soak-crash-recovery.json
	$(GO) run -race ./cmd/loadgen -scenario soak -duration $(SOAK_DURATION) -out $(SOAK_OUT)/soak-report.json

fuzz:
	$(GO) test ./internal/soap -run='^$$' -fuzz=FuzzEqualCanonical -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/soap -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/protocol/jsoncodec -run='^$$' -fuzz=FuzzJSONValid -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/protocol/jsoncodec -run='^$$' -fuzz=FuzzJSONEqual -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzHeaderGet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzReadResponse -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/bayes -run='^$$' -fuzz=FuzzPosteriorFrom -fuzztime=$(FUZZTIME)

vet:
	$(GO) vet ./...

# bench-module compiles, vets and tests the mediation benchmark under
# bench/. It is a module of its own (replace wsupgrade => ../), so
# `./...` at the root never reaches it and an internal/... API change
# could otherwise break it unnoticed.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The pass runs under GOMAXPROCS=1, as bench_baseline.json's ns/op
# (recorded for trend reading, never gated) were; the allocs gates hold
# either way.
bench-run: clean-bench
	GOMAXPROCS=1 $(GO) test -run='^$$' -bench='$(BENCH)' -benchtime=$(BENCHTIME) -benchmem -count=$(COUNT) . | tee bench.out
	$(GO) run ./cmd/benchgate -parse bench.out -out .

bench: bench-run
	$(GO) run ./cmd/benchgate -check -baseline bench_baseline.json -results . -keys '$(GATED)' -max-regress 0.10

bench-baseline: bench-run
	$(GO) run ./cmd/benchgate -update -baseline bench_baseline.json -results .

clean-bench:
	rm -f bench.out BENCH_*.json
