#!/bin/sh
# Regenerate the committed BENCH_*.json files. Each is one experiment's
# `beyondbloom exp EXX -json` output: typed rows + acceptance, written
# by Go; the command exits 1 when a gating check fails, and then the
# file is not replaced.
#   BENCH_batch.json       E24 in-process claims as interleaved pairs:
#                          scalar vs batch per filter, the batch-size
#                          sweep, the blocked Go vs AVX-512 kernels, and
#                          the wire/JSON codec rounds as context
#                          (exp_claims.go; ~1 min, ~1.5 GB)
#   BENCH_wal.json         E19 crash sweep + durability latency (exp_wal.go)
#   BENCH_service.json     E21 filter-service capacity (scalar vs batched
#                          probes interleaved, ratio IQR in meta) and
#                          open-loop sweep (exp_service.go)
#   BENCH_lsm_maplet.json  E22 maplet-first LSM reads, and E22b's scalar
#                          Get vs GetBatch interleaved; its batch-256
#                          floor gates at full scale (exp_lsm_maplet.go)
#   BENCH_growth.json      E23 growable-filter drift/pause (exp_growth.go)
# Every in-process speed ratio in these files comes from one timing
# method, metrics.Interleave (Config.interleave in experiments.go).
# TestCommittedFilesMatchRuns fails when a file and a test-scale run of
# its experiment name different tables, columns or checks: rerun this
# script after reshaping an experiment.
# Persistence throughput is the served benchmark's core.load_mb_s and
# core.save_mb_s (go run -C bench .); persist_bench_test.go stays a
# plain `go test -bench Persist`.
#
# Usage:
#   scripts/bench.sh              rerun everything, overwrite the JSONs
#   scripts/bench.sh --compare    rerun E24 and gate on it: exit 1 if a
#                                 batch kernel allocates or, at full
#                                 scale, a gating speed-up falls under
#                                 its floor; nothing is written
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--compare" ]; then
	exec go run ./cmd/beyondbloom exp E24
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# exp_json ID FILE: one experiment through the typed path. A failing
# gating check stops the script before FILE is replaced.
exp_json() {
	echo "== beyondbloom exp $1 -json =="
	go run ./cmd/beyondbloom exp "$1" -json >"$RAW"
	cp "$RAW" "$2"
	echo "wrote $2"
}
exp_json E24 BENCH_batch.json
exp_json E19 BENCH_wal.json
exp_json E21 BENCH_service.json
exp_json E22 BENCH_lsm_maplet.json
exp_json E23 BENCH_growth.json
