GO ?= go

# Benchmark time per case for bench-json; CI passes BENCHTIME=1x for a
# smoke run that only proves the benchmarks and the JSON pipeline work.
BENCHTIME ?= 1s

# The serving-path benchmarks recorded in BENCH_010.json: internal
# index probe/verify, public API, sharded fan-out, zipf repeated-query
# cache, WAL append cost, the group-commit write storm, cluster
# scatter-gather, and the kNN paths (online QueryKNN across shard
# counts, batch AllKNN).
BENCH_REGEX := ^(BenchmarkQueryThreshold|BenchmarkQueryTopK|BenchmarkQueryKNN|BenchmarkIndexQuery|BenchmarkIndexTopK|BenchmarkShardedQuery|BenchmarkZipfRepeatedQuery|BenchmarkWALAppend|BenchmarkWriteStorm|BenchmarkClusterQuery|BenchmarkAllKNN)$$

.PHONY: all build test race lint fmt vet vsmartlint staticcheck govulncheck bench-json loadtest-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The one lint entry point: what CI gates on, in the order CI runs it.
# staticcheck and govulncheck are external tools the repo does not
# vendor; when absent locally they are skipped with a note (CI always
# runs them).
lint: fmt vet vsmartlint staticcheck govulncheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

vsmartlint:
	$(GO) run ./cmd/vsmartlint ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck -test ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Run the serving-path benchmarks and regenerate BENCH_010.json, diffed
# against the committed pre-kNN baseline. benchjson re-reads the file
# after writing, so this target fails if the artifact is not parseable
# JSON. The committed BENCH_010.json additionally folds in vsmartbench
# load runs via benchjson -loadtest (see bench/loadtest_*.json); the
# smoke run here skips those.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEX)' -benchmem -benchtime $(BENCHTIME) ./... > bench/.last_bench.txt
	$(GO) run ./cmd/benchjson -in bench/.last_bench.txt -baseline bench/BASELINE_010.txt -out BENCH_010.json

# The benchmark of record lives in its own module (perfbench/go.mod),
# which the root `go build ./...` and `go test ./...` do not see. This
# target vets and tests it against the program in this checkout, so a
# change to an API the benchmark calls fails here rather than at
# benchmark time.
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end load-harness smoke: boot a throwaway volatile daemon,
# drive it with vsmartbench for a couple of seconds, and fail unless
# the report is well-formed JSON with non-zero sustained QPS. The
# second leg is a batched write storm — zipf hot keys, every write
# shipped through POST /bulk — so a PR cannot silently break the
# sanctioned batched-ingest path. CI runs this; locally it doubles as
# a quick "is serving alive" check.
loadtest-smoke:
	@set -e; \
	$(GO) build -o /tmp/vsmartjoind.smoke ./cmd/vsmartjoind; \
	/tmp/vsmartjoind.smoke -addr 127.0.0.1:18321 & daemon=$$!; \
	trap "kill $$daemon 2>/dev/null" EXIT; \
	sleep 1; \
	$(GO) run ./cmd/vsmartbench -target 127.0.0.1:18321 \
		-entities 2000 -concurrency 8 -warmup 500ms -duration 2s \
		-out /tmp/vsmartbench.smoke.json; \
	$(GO) run ./cmd/vsmartbench -check /tmp/vsmartbench.smoke.json; \
	$(GO) run ./cmd/vsmartbench -target 127.0.0.1:18321 \
		-entities 2000 -concurrency 8 -read-pct 0 -zipf 1.2 \
		-write-burst 64 -warmup 500ms -duration 2s \
		-out /tmp/vsmartbench.storm.json; \
	$(GO) run ./cmd/vsmartbench -check /tmp/vsmartbench.storm.json; \
	$(GO) run ./cmd/vsmartbench -target 127.0.0.1:18321 -no-preload \
		-entities 2000 -concurrency 8 -read-pct 100 -knn-k 10 \
		-warmup 500ms -duration 2s \
		-out /tmp/vsmartbench.knn.json; \
	$(GO) run ./cmd/vsmartbench -check /tmp/vsmartbench.knn.json

# Batch AllKNN smoke: run the three-job MapReduce kNN pipeline over a
# tiny generated trace and demand one neighbor line per entity — a PR
# cannot silently break the -knn CLI path. CI runs this alongside
# loadtest-smoke.
.PHONY: allknn-smoke
allknn-smoke:
	@set -e; \
	for i in 1 2 3 4 5 6 7 8; do \
		printf "e$$i\tw$$(( i % 3 ))\t2\ne$$i\tw$$(( i % 5 ))\t1\n"; \
	done > /tmp/allknn.smoke.tsv; \
	$(GO) run ./cmd/vsmartjoin -measure jaccard -knn 3 \
		-in /tmp/allknn.smoke.tsv > /tmp/allknn.smoke.out; \
	lines=$$(wc -l < /tmp/allknn.smoke.out); \
	if [ "$$lines" -ne 24 ]; then \
		echo "allknn smoke: got $$lines neighbor lines, want 24 (8 entities x k=3)" >&2; exit 1; fi; \
	echo "allknn smoke: 8 entities x k=3 neighbors OK"
