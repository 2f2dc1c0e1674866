GO ?= go

.PHONY: build test race vet check chaos qos crash tail fuzz bench bench-smoke object cluster failover migrate degrade clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine's concurrency protocol is the main race-detector target;
# -count=2 reshuffles goroutine interleavings.
race:
	$(GO) test -race -count=2 ./internal/engine/... ./internal/server/... ./cmd/oiraidd/...

vet:
	$(GO) vet ./...

# Fault-injection suite under the race detector: transient absorption,
# auto-eviction, hot-spare adoption, crash/restart journal replay.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Fault|Retry|Heal|ReadRepair|Torn|SelfHeal' \
		./internal/store/... ./internal/engine/... ./internal/server/...

# Recovery-QoS suite under the race detector: admission shedding,
# deadline propagation, adaptive rebuild/scrub pacing, overload HTTP
# semantics (429/504).
qos:
	$(GO) test -race -count=2 -run 'QoS|Overload|Pacer|Deadline|Scrub' \
		./internal/store/... ./internal/engine/... ./internal/server/... ./cmd/oiraidd/...

# Crash-consistency suite under the race detector: the power-fail sweep
# (hundreds of seeded crash points, remount, oracle verify), durable
# superblock/journal/mount semantics, two-layer fsck, and the object
# plane's all-or-nothing PUT sweep — local, engine, HTTP, and CLI levels.
crash:
	$(GO) test -race -count=1 -run 'Crash|Mount|Superblock|Journal|Fsck|Durable' \
		./internal/store/... ./internal/engine/... ./internal/object/... ./internal/server/... ./cmd/...

# Tail-tolerance suite under the race detector: hedged reconstruct-reads
# (p99 bound with a slow disk, no goroutine leaks), slow-disk quarantine
# recover/escalate cycles, read-avoid, slow-burst injection, panic
# middleware, circuit-breaking client.
tail:
	$(GO) test -race -count=1 -run 'Hedge|Quarantine|ReadAvoid|SlowBurst|SetSlow|Panic|Breaker|Backoff|RetryTime|EndpointKey' \
		./internal/store/... ./internal/engine/... ./internal/server/...

# Short coverage-guided smoke over the media-facing decoders: array I/O,
# superblock slots, journal replay.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSuperblockDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzArrayIO -fuzztime 10s ./internal/store/

check: build vet test

# Object-plane suite under the race detector: store unit tests, the
# crash sweep, and the HTTP lifecycle/retry-safety end-to-end tests.
object:
	$(GO) test -race -count=1 ./internal/object/...
	$(GO) test -race -count=1 -run 'Object|PutRetry' ./internal/server/...

# Multi-node suite under the race detector: the netdev wire protocol
# (frame fuzz corpus, breaker, probes, identity check), the coordinator's
# unreachable-vs-lost state machine, the seeded partition/node-kill chaos
# sweep with the acked-write oracle + clean fsck, and the oiraidd
# -node/-nodes end-to-end.
cluster:
	$(GO) test -race -count=1 ./internal/store/netdev/... ./internal/cluster/...
	$(GO) test -race -count=1 -run 'Cluster|NodeSpecs|Unreachable' ./cmd/oiraidd/... ./cmd/oiraidctl/...

# Coordinator fail-over suite under the race detector: the node-side
# lease/fencing/generation protocol, the seeded coordinator-kill and
# partition chaos sweep with the acked-write oracle + split-brain check,
# quorum-only recovery, goroutine-leak guard, and the oiraidd
# standby/oiraidctl -fallback end-to-end paths.
failover:
	$(GO) test -race -count=1 -run 'Meta|Failover|Standby|HA|Fallback' \
		./internal/store/netdev/... ./internal/cluster/... ./cmd/oiraidd/... ./cmd/oiraidctl/...
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 10s ./internal/cluster/

# Graceful-degradation suite under the race detector: the exhaustive
# per-strip availability census (all 84 triple and 126 quad failure
# patterns), the degraded mount policies (refuse/read-only/partial),
# the serving-mode lattice with write fencing and forced floors, and
# the composed beyond-tolerance torture sweep (node kill + partition +
# torn responses + slow bursts) with the partial-serving oracle.
degrade:
	$(GO) test -race -count=1 -run 'Degrad|Availability|Mode|DiskDown|Policy|MountPartial|MountRefuse' \
		./internal/core/... ./internal/store/... ./internal/engine/... ./internal/cluster/...

# Machine-readable benchmark report: the erasure/rebuild micro- and
# experiment benchmarks plus the object PUT/GET path (MB/s, p50/p99
# latency, allocs/op) land in BENCH_object.json via cmd/benchjson;
# the network plane's wire round-trip and reconstruct-over-network
# numbers land in BENCH_netdev.json.
bench:
	( $(GO) test -bench . -benchtime 1x -benchmem -run '^$$' . && \
	  $(GO) test -bench Object -benchtime 50x -benchmem -run '^$$' ./internal/object/ ) \
		| $(GO) run ./cmd/benchjson -out BENCH_object.json
	( $(GO) test -bench Netdev -benchtime 200x -benchmem -run '^$$' ./internal/store/netdev/ && \
	  $(GO) test -bench Cluster -benchtime 50x -benchmem -run '^$$' ./internal/cluster/ ) \
		| $(GO) run ./cmd/benchjson -out BENCH_netdev.json
	$(GO) test -bench Failover -benchtime 20x -benchmem -run '^$$' ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -out BENCH_failover.json
	$(GO) test -bench Migrate -benchtime 20x -benchmem -run '^$$' ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -out BENCH_migrate.json
	$(GO) test -bench Degrade -benchtime 50x -benchmem -run '^$$' ./internal/store/ \
		| $(GO) run ./cmd/benchjson -out BENCH_degrade.json
	@for f in BENCH_object.json BENCH_netdev.json BENCH_failover.json BENCH_migrate.json BENCH_degrade.json; do \
		test -s $$f || { echo "bench: missing $$f" >&2; exit 1; }; \
	done

# The benchmark under bench/ is its own module (replace ../), which no
# root ./... pattern reaches: vet it and run its smoke tests here, so an
# API change that breaks the benchmark's build fails before it merges.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Membership-plane suite under the race detector: node add/drain/rejoin,
# the ranged bulk-copy wire surface and its fencing, the mid-migration
# partition chaos sweep with the acked-write oracle + clean fsck, and
# resume across both a coordinator remount and a fenced HA takeover.
migrate:
	$(GO) test -race -count=1 -run 'Migrat|AddNode|Drain|Rejoin|Membership|Range' \
		./internal/store/netdev/... ./internal/cluster/...

clean:
	$(GO) clean ./...
