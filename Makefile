GO ?= go

.PHONY: all build vet staticcheck test test-race cover bench microbench experiments experiments-quick examples chaos torture fuzz-smoke obs-smoke trace-smoke hot-smoke clean

all: build vet staticcheck test test-race

build:
	$(GO) build ./...

# vet fails on any file gofmt would change, then runs go vet.
vet:
	@set -e; unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Static analysis beyond vet. Skips politely when the tool is not
# installed (dev and CI images are not required to carry it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=coverage.out ./... && $(GO) tool cover -func=coverage.out | tail -1

# The benchmark of record: four workloads, five end-to-end metrics and
# the per-layer ladder, written to bench/out/ (see bench/README.md).
bench:
	$(GO) run ./bench

# Per-package Go microbenchmarks (codecs, B+tree, index builds, policies,
# session echo).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure/table at paper scale (takes a few minutes).
experiments:
	$(GO) run ./cmd/pmvbench -sim-div 1 -rounds 500

# Quick pass over every figure (seconds).
experiments-quick:
	$(GO) run ./cmd/pmvbench

# Every torture harness at its CI seed count under the race detector:
# the storage crash and snapshot-fault harnesses, then each row of the
# chaos table (net, cluster, cluster-tail, cluster-hot, restart, write —
# see internal/torture/chaos.go and cmd/pmvtorture).
chaos:
	$(GO) run -race ./cmd/pmvtorture -scenario all -v

# The wide sweep: fifty storage crash seeds, then ten seeds of every
# harness under the race detector.
torture:
	$(GO) run ./cmd/pmvtorture -scenario storage -seeds 50 -v
	$(GO) run -race ./cmd/pmvtorture -scenario all -seeds 10 -v

# Short coverage-guided fuzz of the wire codecs, the snapshot reader,
# the B+tree bulk build, the B+tree's in-place Insert/Delete, the
# key-only join against a nested loop, the tuple decoder's two input
# forms against a reference decoder and the masked decode against the
# full one, and the write plane against per-statement maintenance (the
# seed corpus and any fuzzer-found regressions always run as part of
# plain `make test`).
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeRow -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeUpdate -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeTraceContext -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodePing -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeProbe -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeRefill -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeHotSet -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeHotInval -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=30s ./internal/snapshot
	$(GO) test -fuzz=FuzzBuild -fuzztime=30s ./internal/btree
	$(GO) test -fuzz=FuzzInsertDelete -fuzztime=30s ./internal/btree
	$(GO) test -fuzz=FuzzKeyJoin -fuzztime=30s ./internal/exec
	$(GO) test -fuzz=FuzzAppendDecoded -fuzztime=30s ./internal/value
	$(GO) test -fuzz=FuzzPlaneMatchesPerStatement -fuzztime=30s ./internal/maint

# Observability smoke test: boot pmvd with -obs on a scratch database,
# probe /healthz and /metrics, and require the key metric families.
obs-smoke:
	@set -e; dir=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pmvd" ./cmd/pmvd; \
	"$$dir/pmvd" -dir "$$dir/db" -addr 127.0.0.1:7071 -obs 127.0.0.1:9091 \
		-snapshot-dir "$$dir/snap" -snapshot-interval 1s & pid=$$!; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -fs http://127.0.0.1:9091/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "obs-smoke: endpoint never came up"; exit 1; }; \
	curl -fs http://127.0.0.1:9091/healthz | grep -q '"status":"ok"'; \
	curl -fs http://127.0.0.1:9091/metrics > "$$dir/metrics.txt"; \
	for fam in pmvd_sessions_total pmvd_queries_total pmvd_query_seconds \
	           pmvd_trace_enabled pmvd_slowlog_threshold_seconds go_goroutines \
	           pmvd_snapshot_age_seconds pmvd_snapshot_writes_total \
	           pmvd_snapshot_stale_rejects_total; do \
		grep -q "^# TYPE $$fam " "$$dir/metrics.txt" || { echo "obs-smoke: missing family $$fam"; exit 1; }; \
	done; \
	echo "obs-smoke: OK"

# Cluster-trace smoke: the trace/slowlog/fleet loopback tests under the
# race detector, then a binary-level pass — two scratch pmvd shards
# behind a tracing pmvrouter, checked through pmvcli (fleet, trace
# recent) and the router's /metrics trace and cost families.
trace-smoke:
	$(GO) test -race -count=1 -run 'Trace|Slow|Fleet|Degraded' ./internal/wire/ ./internal/session/ ./internal/server/ ./internal/cluster/
	@set -e; dir=$$(mktemp -d); \
	trap 'kill $$spid1 $$spid2 $$rpid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pmvd" ./cmd/pmvd; \
	$(GO) build -o "$$dir/pmvrouter" ./cmd/pmvrouter; \
	$(GO) build -o "$$dir/pmvcli" ./cmd/pmvcli; \
	"$$dir/pmvd" -dir "$$dir/s1" -addr 127.0.0.1:7181 & spid1=$$!; \
	"$$dir/pmvd" -dir "$$dir/s2" -addr 127.0.0.1:7182 & spid2=$$!; \
	"$$dir/pmvrouter" -addr 127.0.0.1:7180 -shards 127.0.0.1:7181,127.0.0.1:7182 \
		-trace -obs 127.0.0.1:9190 & rpid=$$!; \
	ok=0; for i in $$(seq 1 50); do \
		if printf 'fleet\nquit\n' | "$$dir/pmvcli" -addr 127.0.0.1:7180 2>/dev/null \
			| grep -q '2 up, 0 down'; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "trace-smoke: fleet never saw both shards up"; exit 1; }; \
	printf 'trace recent\nquit\n' | "$$dir/pmvcli" -addr 127.0.0.1:7180 | grep -q 'no traces retained'; \
	curl -fs http://127.0.0.1:9190/metrics > "$$dir/metrics.txt"; \
	for fam in pmvrouter_traces_sampled_total pmvrouter_trace_slow_recorded_total \
	           pmvrouter_trace_degraded_recorded_total pmvrouter_trace_store_depth \
	           pmvrouter_query_cost_rows_total pmvrouter_query_cost_wire_bytes_total; do \
		grep -q "^# TYPE $$fam " "$$dir/metrics.txt" || { echo "trace-smoke: missing family $$fam"; exit 1; }; \
	done; \
	echo "trace-smoke: OK"

# Frequency-plane smoke, binary level: three -freq pmvd shards behind a
# -hot pmvrouter, checked through the router's and a shard's /metrics
# frequency-plane families. The plane's chaos row is cluster-hot.
hot-smoke:
	@set -e; dir=$$(mktemp -d); \
	trap 'kill $$spid1 $$spid2 $$spid3 $$rpid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/pmvd" ./cmd/pmvd; \
	$(GO) build -o "$$dir/pmvrouter" ./cmd/pmvrouter; \
	$(GO) build -o "$$dir/pmvcli" ./cmd/pmvcli; \
	"$$dir/pmvd" -dir "$$dir/s1" -addr 127.0.0.1:7281 -freq -obs 127.0.0.1:9281 & spid1=$$!; \
	"$$dir/pmvd" -dir "$$dir/s2" -addr 127.0.0.1:7282 -freq & spid2=$$!; \
	"$$dir/pmvd" -dir "$$dir/s3" -addr 127.0.0.1:7283 -freq & spid3=$$!; \
	"$$dir/pmvrouter" -addr 127.0.0.1:7280 \
		-shards 127.0.0.1:7281,127.0.0.1:7282,127.0.0.1:7283 \
		-hot -hot-push 100ms -hot-filter 100ms -obs 127.0.0.1:9280 & rpid=$$!; \
	ok=0; for i in $$(seq 1 50); do \
		if printf 'fleet\nquit\n' | "$$dir/pmvcli" -addr 127.0.0.1:7280 2>/dev/null \
			| grep -q '3 up, 0 down'; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "hot-smoke: fleet never saw all three shards up"; exit 1; }; \
	curl -fs http://127.0.0.1:9280/metrics > "$$dir/router.txt"; \
	for fam in pmvrouter_hot_pushes_total pmvrouter_hot_invals_total \
	           pmvrouter_hot_replica_hits_total pmvrouter_hot_suppressed_total \
	           pmvrouter_hot_filter_refreshes_total pmvrouter_hot_topk_offers_total; do \
		grep -q "^# TYPE $$fam " "$$dir/router.txt" || { echo "hot-smoke: missing router family $$fam"; exit 1; }; \
	done; \
	curl -fs http://127.0.0.1:9281/metrics > "$$dir/shard.txt"; \
	for fam in pmvd_freq_probes_suppressed_total pmvd_freq_admit_gate_rejects_total \
	           pmvd_freq_hot_set_keys_total pmvd_freq_filter_false_positives_total; do \
		grep -q "^# TYPE $$fam " "$$dir/shard.txt" || { echo "hot-smoke: missing shard family $$fam"; exit 1; }; \
	done; \
	echo "hot-smoke: OK"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/callcenter
	$(GO) run ./examples/tpcr
	$(GO) run ./examples/adaptivity
	$(GO) run ./examples/nested

clean:
	rm -f coverage.out test_output.txt bench_output.txt
	rm -rf bench/out .bench_build
