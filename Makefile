# Developer entry points for the agingmf reproduction.

GO ?= go

.PHONY: all build test race cover bench bench-smoke check chaos experiments experiments-quick fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full internal coverage report, then the floor: the pipeline transport,
# the lifecycle kernel, the tracing/flight-recorder instrumentation, the
# cluster routing/migration layer, the pluggable detector suite, the
# rejuvenation models and the control plane must stay >= 80% covered
# (CI runs this).
cover:
	$(GO) test -cover ./internal/...
	$(GO) test -cover ./internal/source/ ./internal/runtime/ ./internal/trace/ ./internal/cluster/ ./internal/detect/ ./internal/rejuv/ ./internal/control/ | awk \
		'/coverage:/ { for (i = 1; i < NF; i++) if ($$i == "coverage:") { \
			v = $$(i + 1); gsub(/%/, "", v); \
			if (v + 0 < 80) { print "coverage floor 80% violated: " $$0; fail = 1 } } } \
		END { exit fail }'

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark (BenchmarkIngestBinary and
# BenchmarkMonitorAddColumns ride the wildcard), then the overhead
# budgets: proves the bench suite still builds and runs, that 1/1024
# sampling stays within its documented throughput envelope, that a
# depth-64 flight recorder costs binary ingestion at most 10%, that a
# two-detector MonitorSet on a memsim trace in 256-sample column units
# stays within 2.5x a single detector, and that decoding a binary frame
# stays at least 25x cheaper per sample than parsing and transposing a
# batch; text line, the only place the two wires still differ (CI runs
# this).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=1x . ./internal/ingest/ ./internal/source/ ./internal/detect/
	AGINGMF_TRACE_BUDGET=1 $(GO) test -run 'TestTraceOverheadBudget|TestRecorderOverheadBudget' -count=1 -v ./internal/ingest/
	AGINGMF_DETECT_BUDGET=1 $(GO) test -run TestMonitorSetOverheadBudget -count=1 -v ./internal/ingest/
	AGINGMF_BINARY_BUDGET=1 $(GO) test -run TestBinaryOverTextBudget -count=1 -v ./internal/ingest/

# Fast pre-commit gate: vet plus the race detector on the packages with
# lock-free/concurrent code (telemetry, monitor, streaming kernel, fleet,
# resilience, chaos, the ingest daemon, the pipeline transport, the
# lifecycle kernel, the pipeline tracer and the control plane), and a
# build of every example against the public facade.
check: vet
	$(GO) test -race ./internal/obs/... ./internal/stream/... ./internal/aging/... \
		./internal/collector/... ./internal/resilience/... ./internal/chaos/... \
		./internal/ingest/... ./internal/source/... ./internal/runtime/... \
		./internal/trace/... ./internal/cluster/... ./internal/detect/... \
		./internal/control/... ./cmd/agingd/...
	$(GO) build ./examples/...

# Robustness regression suite: the fault-injection campaigns plus the
# hardened agingmon/agingd paths and the closed-loop rejuvenation
# controller, under the race detector. -short keeps the injected-fault
# budgets at their test sizes.
chaos:
	$(GO) test -race -short -v -run 'Chaos|Campaign|Resilience|Watchdog|Retry|Signal|BadSample|Stall|Ingest|SelfTest|Interrupt|Migrate|Adoption|Heartbeat|Quarantine|Rejuvenat' \
		./internal/chaos/... ./internal/resilience/... ./internal/collector/... \
		./internal/ingest/... ./internal/cluster/... ./internal/control/... \
		./internal/experiment/ ./cmd/agingmon/... ./cmd/agingd/...

# Regenerate every reconstructed table/figure (writes to stdout; see
# EXPERIMENTS.md for the archived reference run).
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
