# PRIVATE-IYE development targets. Everything is stdlib Go; no tools
# beyond the Go toolchain are required.

GO ?= go

.PHONY: all build vet test test-fast test-race test-short test-integration test-shard cover bench bench-quick bench-batch bench-psi bench-guard bench-baseline attack experiments examples fmt fuzz crash

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full check: vet, plain tests, then the race detector over everything.
test: vet test-fast test-race

test-fast:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

# End-to-end harness: three source HTTP endpoints behind a mediator,
# driven through the public surfaces only. -count=1 defeats the test
# cache (the harness exercises real sockets and on-disk WALs) and -race
# keeps the fan-out paths honest.
test-integration:
	$(GO) test -count=1 -race ./internal/e2e/

# The sharded mediator tier: ring placement properties and the router
# unit suite, then the three-shard end-to-end harness (stickiness,
# drain/re-route, refusals surviving the hop) under the race detector.
test-shard:
	$(GO) test -count=1 -race ./internal/shard/
	$(GO) test -count=1 -race -run TestShardedTierEndToEnd ./internal/e2e/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the hot-path kernels and the XML codec over a
# 2000-row answer: a smoke check that the benchmarks still build and
# run, not a measurement.
bench-quick:
	$(GO) test -run '^$$' -bench 'PSI|PIQL|Fig1dInference' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'EncodeResult|ParseResult' -benchtime 1x -benchmem ./internal/xmltree/

# The amortization benchmarks: group-committed WAL appends vs inline
# fsync, the pooled record encoder, and the chunked PSI kernels (warm
# and cold blinds, exponentiation).
bench-batch:
	$(GO) test -run '^$$' -bench 'WALAppendAlways|AppendRecord' -benchmem ./internal/durable/
	$(GO) test -run '^$$' -bench 'BenchmarkBlind|BenchmarkExponentiate' -benchmem ./internal/psi/

# The PSI suite comparison: cold-start blinding across suites (the
# number the EC default is justified by), the allocation-sensitive
# hash-to-group kernels, and the E25 acceptance gate (>=5x cold blind,
# <=35 B/elem, >=7x wire ratio — E25 exits non-zero if violated).
bench-psi:
	$(GO) test -run '^$$' -bench 'BenchmarkBlindCold|BenchmarkHashToGroup' -benchmem ./internal/psi/
	$(GO) run ./cmd/piye-bench -quick -only E25

# Perf guard: fails when the best of several measurement rounds is more
# than 10% slower than the committed baseline (bench/baseline.json).
bench-guard:
	$(GO) run ./cmd/piye-bench -guard bench/baseline.json

# Re-record the perf-guard baseline on the reference machine.
bench-baseline:
	$(GO) run ./cmd/piye-bench -update-baseline bench/baseline.json

# Short native-fuzzing runs over the untrusted-input decoders and the
# ring invariants: WAL record decoding, the PIQL parser, the XML parser
# (differential against encoding/xml), the PSI wire envelope and element
# decoders (both suites), and shard placement under arbitrary membership
# churn. Raise FUZZTIME for longer hunts.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/piql/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalElems -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzP256DecodeElement -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzModPDecodeElement -fuzztime $(FUZZTIME) ./internal/psi/
	$(GO) test -run '^$$' -fuzz FuzzRingLookup -fuzztime $(FUZZTIME) ./internal/shard/

# Crash-injection matrix: every durable-log failpoint under every fsync
# policy, plus the mediator- and audit-level crash/restart suites.
crash:
	$(GO) test -run 'Crash|Restart|Unrecordable|Torn' -v ./internal/durable/ ./internal/mediator/ ./internal/audit/

attack:
	$(GO) run ./cmd/piye-attack

experiments:
	$(GO) run ./cmd/piye-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clinical
	$(GO) run ./examples/outbreak
	$(GO) run ./examples/federation
	$(GO) run ./examples/policytour

fmt:
	gofmt -w .
