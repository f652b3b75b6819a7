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

echo "== go test -race =="
go test -race ./...

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
go test -short -run '^$' -bench 'Blocked(Contains|Insert)Batch' -benchtime 1x ./internal/bloom >/dev/null

echo "== served benchmark: vet, tests, smoke run (every answer verified) =="
go vet -C bench .
go test -C bench .
go run -C bench . -smoke >/dev/null

echo "== codec + WAL + wire + taffy + quotient + Elias-Fano fuzz burst (10s each) =="
go test -run '^$' -fuzz FuzzFrameRoundTrip -fuzztime 10s ./internal/codec >/dev/null
go test -run '^$' -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/persisttest >/dev/null
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/persisttest >/dev/null
go test -run '^$' -fuzz FuzzRequestDecode -fuzztime 10s ./internal/server >/dev/null
go test -run '^$' -fuzz FuzzTaffy -fuzztime 10s ./internal/taffy >/dev/null
go test -run '^$' -fuzz FuzzFilterChurn -fuzztime 10s ./internal/quotient >/dev/null
go test -run '^$' -fuzz FuzzCounterCodec -fuzztime 10s ./internal/quotient >/dev/null
go test -run '^$' -fuzz FuzzRoundTripAndSearch -fuzztime 10s ./internal/ef >/dev/null

echo "OK"
