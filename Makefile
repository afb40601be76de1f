# Build/verify entry points. Allocation ceilings are not a target of
# their own: TestAllocationCeilings (allocs_test.go) holds the in-process
# benchmark rows to them in every plain `go test ./...`.

GO ?= go

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

.PHONY: test vet lint bench-module soak fuzz

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
