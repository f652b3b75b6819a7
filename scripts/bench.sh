#!/bin/sh
# Regenerate the committed BENCH_*.json files. Two kinds of source:
#   go test -bench | scripts/bench_to_json.py (go's own benchmark format)
#     BENCH_batch.json    batched vs scalar probes (batch_bench_test.go),
#                         the blocked probe and insert kernels at
#                         cache-resident and DRAM size (internal/bloom)
#                         and the binary frame and JSON body codecs
#                         (internal/server)
#     BENCH_persist.json  persistence codec (persist_bench_test.go)
#   beyondbloom exp EXX -json (typed rows + acceptance, written by Go;
#   exits 1 when a gating check fails, and then the file is not replaced)
#     BENCH_wal.json         E19 crash sweep + durability latency (exp_wal.go)
#     BENCH_service.json     E21 filter-service sweep (exp_service.go)
#     BENCH_lsm_maplet.json  E22 maplet-first LSM reads (exp_lsm_maplet.go)
#     BENCH_growth.json      E23 growable-filter drift/pause (exp_growth.go)
# Setup builds multi-MB filters, so a full run takes a few minutes.
#
# Usage:
#   scripts/bench.sh              rerun everything, overwrite the JSONs
#   scripts/bench.sh --compare    rerun the batch section only and diff
#                                 it against the committed
#                                 BENCH_batch.json, flagging >10%
#                                 regressions (exit 1 if any)
set -eu
cd "$(dirname "$0")/.."

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# The batch section: every package holding a probe-path benchmark.
BATCH_BENCH='Filter.*Contains(Scalar|Batch)|FilterBatchSweep|BlockedContainsBatch|BlockedInsert(Scalar|Batch)|WireProbeFrame|JSONBody'
BATCH_PKGS='. ./internal/bloom ./internal/server'

if [ "${1:-}" = "--compare" ]; then
	[ -f BENCH_batch.json ] || { echo "no committed BENCH_batch.json to compare against" >&2; exit 2; }
	echo "== go test -bench $BATCH_BENCH (compare mode) =="
	go test -run '^$' -bench "$BATCH_BENCH" \
		-benchmem -benchtime 1s -timeout 1800s $BATCH_PKGS | tee "$RAW"
	python3 scripts/bench_to_json.py <"$RAW" >BENCH_batch.new.json
	status=0
	python3 scripts/bench_compare.py BENCH_batch.json BENCH_batch.new.json || status=$?
	rm -f BENCH_batch.new.json
	exit $status
fi

echo "== go test -bench $BATCH_BENCH =="
go test -run '^$' -bench "$BATCH_BENCH" \
	-benchmem -benchtime 1s -timeout 1800s $BATCH_PKGS | tee "$RAW"
python3 scripts/bench_to_json.py <"$RAW" >BENCH_batch.json
echo "wrote BENCH_batch.json"

echo "== go test -bench Persist{Encode,Decode} =="
go test -run '^$' -bench 'Persist(Encode|Decode)' \
	-benchmem -benchtime 1s -timeout 1800s . | tee "$RAW"
python3 scripts/bench_to_json.py <"$RAW" >BENCH_persist.json
echo "wrote BENCH_persist.json"

# exp_json ID FILE: one experiment through the typed path. A failing
# gating check stops the script before FILE is replaced.
exp_json() {
	echo "== beyondbloom exp $1 -json =="
	go run ./cmd/beyondbloom exp "$1" -json >"$RAW"
	cp "$RAW" "$2"
	echo "wrote $2"
}
exp_json E19 BENCH_wal.json
exp_json E21 BENCH_service.json
exp_json E22 BENCH_lsm_maplet.json
exp_json E23 BENCH_growth.json
