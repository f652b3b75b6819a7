#!/bin/sh
# Short fuzz bursts over every fuzz target in the module: each target
# `go test -list '^Fuzz' ./...` reports is fuzzed for <duration> in its
# own package, one after another. A new target needs no edit here.
#
#   sh scripts/fuzz.sh 10s
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
	echo "usage: $0 <duration>" >&2
	exit 2
fi

# -list prints a package's matching names, then its "ok <pkg>" line.
targets=$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/ { names = names " " $1 }
	/^ok /  { if (names != "") print $2 names; names = "" }')
[ -n "$targets" ] || { echo "no fuzz targets found" >&2; exit 1; }

echo "$targets" | while read -r pkg names; do
	for name in $names; do
		echo "fuzz $name ($pkg, $1)"
		if ! out=$(go test -run '^$' -fuzz "^$name\$" -fuzztime "$1" "$pkg" 2>&1); then
			echo "$out" >&2
			exit 1
		fi
	done
done
