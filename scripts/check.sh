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

echo "== portable kernels run: the bloom tests at GOARCH=386 (the Go kernels only) =="
GOARCH=386 go vet ./internal/bloom && GOARCH=386 go test ./internal/bloom

echo "== go test -race =="
go test -race ./...

echo "== maplet slot tests, three times under the race detector =="
go test -race -count=3 -run 'RunIDBound|CollidingEntries|Maplet' ./internal/lsm

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
go test -short -run '^$' -bench 'Blocked(Contains|Insert)Batch|BlockedFill' -benchtime 1x ./internal/bloom >/dev/null
go test -short -run '^$' -bench 'WireProbeFrame|JSONBody|LoadFilterFile' -benchtime 1x ./internal/server >/dev/null

echo "== served benchmark: vet, tests, smoke run (every answer verified) =="
go vet -C bench .
go test -C bench .
go run -C bench . -smoke >/dev/null

echo "== codec + sealed payload + WAL + wire + JSON body + taffy + quotient + cuckoo + Elias-Fano + maplet read + blocked Bloom probe and insert kernel fuzz burst (10s each) =="
go test -run '^$' -fuzz FuzzFrameRoundTrip -fuzztime 10s ./internal/codec >/dev/null
go test -run '^$' -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/persisttest >/dev/null
go test -run '^$' -fuzz FuzzSealedPayload -fuzztime 10s ./internal/persisttest >/dev/null
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/persisttest >/dev/null
go test -run '^$' -fuzz FuzzRequestDecode -fuzztime 10s ./internal/server >/dev/null
go test -run '^$' -fuzz FuzzPutBody -fuzztime 10s ./internal/server >/dev/null
go test -run '^$' -fuzz FuzzTaffy -fuzztime 10s ./internal/taffy >/dev/null
go test -run '^$' -fuzz FuzzFilterChurn -fuzztime 10s ./internal/quotient >/dev/null
go test -run '^$' -fuzz FuzzCounterCodec -fuzztime 10s ./internal/quotient >/dev/null
go test -run '^$' -fuzz FuzzCuckooChurn -fuzztime 10s ./internal/cuckoo >/dev/null
go test -run '^$' -fuzz FuzzRoundTripAndSearch -fuzztime 10s ./internal/ef >/dev/null
go test -run '^$' -fuzz FuzzGetBatch -fuzztime 10s ./internal/lsm >/dev/null
go test -run '^$' -fuzz FuzzBlockedContainsBatch -fuzztime 10s ./internal/bloom >/dev/null
go test -run '^$' -fuzz FuzzBlockedInsertBatch -fuzztime 10s ./internal/bloom >/dev/null

echo "OK"
