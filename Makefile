GO ?= go

.PHONY: build test race fuzz bench bench-smoke cover lint check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector: the engine's concurrency
# protocol, the fault-injection, QoS, crash, tail, object, cluster,
# fail-over, membership and degradation sweeps all run here — no -run
# filter, so a test cannot fall out of coverage by being renamed or moved.
# The stream lifecycle, blob, batch, deadline, lease and prober tests then
# run five times more: a race there would hide in the hand-over of an
# upgraded connection among the client's dial, its deadline timer, a
# caller's context cutting the exchange and Close, among blob ops and lease
# renewals sharing a node's streams, in the prober's ping taking a stream
# beside them, in a node's strip reads landing in place in the answer it
# checksums, or in a hedged read's cancelled loser and the reaper that waits
# for it, which one pass may not interleave.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run 'Stream|Blob|Batch|CloseInBenchOrder|NodeRestart|Deadline|Cancel|CloseDoesNotWait|Lease|Meta|Prober|WrongNode|Grace' ./internal/store/netdev ./internal/cluster
	$(GO) test -race -count=5 -run 'Deadline|Cancel' ./internal/engine ./internal/server

# Short coverage-guided smoke over every fuzz target of the module: the
# decoders that face media, the wire or an operator's file (array I/O,
# superblock slots, journal replay, cluster manifest, node wire messages,
# object metadata, trace files, layout JSON). Targets are discovered per
# package, so a new Fuzz function is fuzzed without an edit here.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# The two measurements bench/ has no workload for yet: coordinator
# fail-over (quorum append, take-over latency) and strip migration
# throughput, as JSON via cmd/benchjson. Everything else is measured by
# `bash bench/run.sh --workload …` (see BENCHMARK.json).
bench:
	$(GO) test -bench Failover -benchtime 20x -benchmem -run '^$$' ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -out BENCH_failover.json
	$(GO) test -bench Migrate -benchtime 20x -benchmem -run '^$$' ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -out BENCH_migrate.json
	@for f in BENCH_failover.json BENCH_migrate.json; do \
		test -s $$f || { echo "bench: missing $$f" >&2; exit 1; }; \
	done

# The benchmark under bench/ is its own module (replace ../), which no
# root ./... pattern reaches: vet it and run its smoke tests here, so an
# API change that breaks the benchmark's build fails before it merges.
# The kernel, parity-delta, device, array, engine strip-op, journal, blob,
# strip-message, batch-message, blob-message, cluster-format, cluster-write,
# HA-write, disk-migration and object strip-allocator micro-benchmarks run
# once each, so they cannot rot.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Slice|Encode|Reconstruct|UpdateParity|NewMemDevice|Fsck|ArrayWrite|ArrayDegradedRead|ArrayDeepRead|EngineWriteStrip|EngineReadStrip|JournaledWrite|JournaledRead|MemBlobAppend|NetDeviceStrip|NetDeviceBatch|NetBlob|ClusterFormat|ClusterWrite|FailoverQuorumAppend|MigrateDisk|Alloc' -benchtime 1x \
		./internal/gf ./internal/erasure ./internal/store ./internal/engine ./internal/store/netdev ./internal/cluster ./internal/object

# The functions of the serving packages that no test of the module reaches:
# every test runs with coverage of every package (-coverpkg), the profile goes
# to a temporary directory, and the functions at 0 % are listed, less the
# entry points (main) and Close methods. Every line it prints is a finding,
# so an empty list is the passing state. Read it after adding a plane or a
# route — it is how the untested membership plane was found.
SERVING := internal/store|internal/store/netdev|internal/engine|internal/object|internal/server|internal/cluster|cmd/oiraidd|cmd/oiraidctl
cover:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -coverpkg=./... -coverprofile="$$tmp/cover.out" ./... >"$$tmp/test.log" || { cat "$$tmp/test.log"; exit 1; }; \
	$(GO) tool cover -func="$$tmp/cover.out" | grep -E '/($(SERVING))/[^/]+\.go:' | awk '$$NF == "0.0%" && $$2 != "main" && $$2 != "Close"'

lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l *.go cmd internal examples bench)"

check: build lint test

clean:
	$(GO) clean ./...
