#!/bin/sh
# End-to-end smoke of cmd/filterd: build a filter file, serve it with a
# KV store attached, probe over JSON and the binary frame, write and
# read back a KV key, hot-reload a second filter generation, and shut
# down cleanly on SIGTERM. Every step's answer is checked — this is the
# "does the real binary do what the package tests promise" gate.
set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/filterd" ./cmd/filterd

# Keys 0..4999 of seed 42 are in generation 1; seed 9 builds a
# different, smaller generation 2.
"$WORK/filterd" build -o "$WORK/gen1.bbf" -n 5000 -seed 42 >/dev/null
"$WORK/filterd" build -o "$WORK/gen2.bbf" -n 100 -seed 9 >/dev/null

"$WORK/filterd" serve -addr 127.0.0.1:0 -filter "$WORK/gen1.bbf" \
	-store "$WORK/kv" -durability group -portfile "$WORK/port" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the portfile (the server writes it once it is listening).
i=0
while [ ! -s "$WORK/port" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "filterd_smoke: server never wrote portfile" >&2; cat "$WORK/server.log" >&2; exit 1; }
	sleep 0.1
done
ADDR=$(cat "$WORK/port")

fail() {
	echo "filterd_smoke: $1" >&2
	cat "$WORK/server.log" >&2
	exit 1
}

# Probe via both request paths: JSON batch, then the binary frame.
OUT=$("$WORK/filterd" probe -addr "$ADDR" -keys 1,2,3)
echo "$OUT" | grep -q '"found"' || fail "JSON probe gave no found array: $OUT"
# The body's form picks the answer's: a one-key "keys" list still gets
# an array, a "key" a scalar.
OUT=$("$WORK/filterd" probe -addr "$ADDR" -keys 7)
echo "$OUT" | grep -q '"found":\[' || fail "JSON probe of a one-key list gave no array: $OUT"
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key 7)
echo "$OUT" | grep -q '"found":[tf]' || fail "JSON probe of one key gave no scalar: $OUT"

# KV round trip: put, JSON get, binary get.
"$WORK/filterd" put -addr "$ADDR" -key 7 -value 99 >/dev/null
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key 7 -get)
echo "$OUT" | grep -q '"value":99' || fail "KV get after put returned: $OUT"
OUT=$("$WORK/filterd" probe -addr "$ADDR" -keys 7,8 -binary -get)
echo "$OUT" | grep -q "7	found=true	value=99" || fail "binary KV get returned: $OUT"
"$WORK/filterd" del -addr "$ADDR" -key 7 >/dev/null
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key 7 -get)
echo "$OUT" | grep -q '"found":false' || fail "KV get after delete returned: $OUT"

# Hot reload: generation bumps to 2, server keeps answering.
OUT=$("$WORK/filterd" reload -addr "$ADDR" -path "$WORK/gen2.bbf")
echo "$OUT" | grep -q '"gen":2' || fail "reload did not reach generation 2: $OUT"
OUT=$("$WORK/filterd" probe -addr "$ADDR" -keys 1,2,3)
echo "$OUT" | grep -q '"found"' || fail "probe after reload gave: $OUT"

# Metrics are exposed and count the reload.
curl -fsS "http://$ADDR/metrics" | grep -q 'filterd_reloads_total 1' \
	|| fail "/metrics does not show the reload"

# Clean shutdown on SIGTERM.
kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "server did not exit within 10s of SIGTERM"
	sleep 0.1
done
SERVER_PID=""
grep -q "clean shutdown" "$WORK/server.log" || fail "server log missing clean shutdown marker"

# Maplet-first store: build seeds an LSM store under PolicyMaplet
# (value = key), serve attaches it, and the maplet read path answers
# present, absent, written, and deleted keys end to end.
"$WORK/filterd" build -store "$WORK/mkv" -policy maplet -n 2000 -seed 42 >/dev/null
rm -f "$WORK/port"
"$WORK/filterd" serve -addr 127.0.0.1:0 -store "$WORK/mkv" -durability group \
	-portfile "$WORK/port" >"$WORK/server2.log" 2>&1 &
SERVER_PID=$!
i=0
while [ ! -s "$WORK/port" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "filterd_smoke: maplet server never wrote portfile" >&2; cat "$WORK/server2.log" >&2; exit 1; }
	sleep 0.1
done
ADDR=$(cat "$WORK/port")

# Key 16890718455390265275 is the first key of workload seed 42; its
# seeded value equals the key itself.
K=16890718455390265275
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key "$K" -get)
echo "$OUT" | grep -q "\"value\":$K" || fail "maplet store get of seeded key returned: $OUT"
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key 12345 -get)
echo "$OUT" | grep -q '"found":false' || fail "maplet store get of absent key returned: $OUT"
"$WORK/filterd" put -addr "$ADDR" -key 7 -value 99 >/dev/null
OUT=$("$WORK/filterd" probe -addr "$ADDR" -keys 7 -binary -get)
echo "$OUT" | grep -q "7	found=true	value=99" || fail "maplet store binary get returned: $OUT"
"$WORK/filterd" del -addr "$ADDR" -key 7 >/dev/null
OUT=$("$WORK/filterd" probe -addr "$ADDR" -key 7 -get)
echo "$OUT" | grep -q '"found":false' || fail "maplet store get after delete returned: $OUT"
curl -fsS "http://$ADDR/metrics" | grep -q 'filterd_store_maplet_delete_misses_total 0' \
	|| fail "/metrics does not expose the maplet drift counter"

kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && fail "maplet server did not exit within 10s of SIGTERM"
	sleep 0.1
done
SERVER_PID=""
grep -q "clean shutdown" "$WORK/server2.log" || fail "maplet server log missing clean shutdown marker"

echo "filterd_smoke: OK"
