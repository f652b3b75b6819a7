#!/bin/sh
# Full local gate: vet, build, race-enabled tests, and a short
# end-to-end smoke run of the whole experiment suite.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== portable build: arm64 cross-compile and vet (the Go kernel only) =="
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/bloom

echo "== 32-bit leg: vet and every test at GOARCH=386 (the Go kernels only) =="
GOARCH=386 go vet ./...
GOARCH=386 go test ./...

echo "== go test -race =="
go test -race ./...

echo "== maplet slot tests, three times under the race detector =="
go test -race -count=3 -run 'RunIDBound|CollidingEntries|Maplet' ./internal/lsm

echo "== checkpoint and Save races, twenty times under the race detector =="
go test -race -count=20 -run 'Checkpoint' ./internal/lsm

echo "== filterd build at several GOMAXPROCS (stripe fill ≡ scalar reference) =="
go test -cpu 1,2,4 -run TestBuildMatchesScalarReference ./cmd/filterd >/dev/null

echo "== experiment smoke (exp all -scale 0.05) =="
go run ./cmd/beyondbloom exp all -scale 0.05 >/dev/null

echo "== concurrent engine smoke (exp E18 -scale 0.1) =="
go run ./cmd/beyondbloom exp E18 -scale 0.1 >/dev/null

echo "== crash-injection smoke (exp E19 -scale 0.1) =="
go run ./cmd/beyondbloom exp E19 -scale 0.1 -json >/dev/null

echo "== filter-service smoke (exp E21 -scale 0.1) =="
go run ./cmd/beyondbloom exp E21 -scale 0.1 -json >/dev/null

echo "== maplet-first smoke (exp E22 -scale 0.1) =="
go run ./cmd/beyondbloom exp E22 -scale 0.1 -json >/dev/null

echo "== growable-filter smoke (exp E23 -scale 0.05) =="
go run ./cmd/beyondbloom exp E23 -scale 0.05 -json >/dev/null

echo "== filterd end-to-end smoke =="
sh scripts/filterd_smoke.sh

echo "== benchmark smoke (1 iteration, -short) =="
go test -short -run '^$' -bench 'Filter|Persist|LSMConcurrent' -benchtime 1x -benchmem . >/dev/null
go test -short -run '^$' -bench 'StoreSeed|StoreGetBatch' -benchtime 1x ./internal/lsm >/dev/null
go test -short -run '^$' -bench 'MapletExpand|MapletUpdate|InfiniInsert|InfiniContains' -benchtime 1x ./internal/quotient >/dev/null
go test -short -run '^$' -bench 'BlockedFill' -benchtime 1x ./internal/bloom >/dev/null
go test -short -run '^$' -bench 'CodecRounds|LoadFilterFile' -benchtime 1x ./internal/server >/dev/null

echo "== served benchmark: vet, tests, smoke run (every answer verified) =="
go vet -C bench .
go test -C bench .
go run -C bench . -smoke >/dev/null

echo "== fuzz bursts: every fuzz target in the module (10s each) =="
sh scripts/fuzz.sh 10s

echo "OK"
