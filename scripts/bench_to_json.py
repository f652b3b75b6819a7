#!/usr/bin/env python3
"""Convert `go test -bench` output into machine-readable JSON.

Reads benchmark output on stdin, writes JSON on stdout:

  {
    "meta": {"goos": ..., "goarch": ..., "pkg": ..., "cpu": ...},
    "benchmarks": [{"name", "iters", "ns_per_op", "mb_per_s",
                    "b_per_op", "allocs_per_op"}, ...],
    "pairs": [{"base", "scalar_ns_per_op", "batch_ns_per_op",
               "speedup"}, ...]
  }

A "pair" is a Scalar/Batch benchmark couple sharing a name prefix
(BenchmarkFooScalar / BenchmarkFooBatch); speedup is scalar/batch time,
so > 1 means batching wins.
"""

import json
import re
import sys

BENCH_RE = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+([\d.]+) MB/s)?"
    r"(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?"
)
META_RE = re.compile(r"^(goos|goarch|pkg|cpu): (.*)$")


def parse(lines):
    meta, benches = {}, []
    for line in lines:
        m = META_RE.match(line.strip())
        if m:
            # First occurrence wins: a multi-package run repeats the
            # header per package, and the first package names the suite.
            meta.setdefault(m.group(1), m.group(2).strip())
            continue
        m = BENCH_RE.match(line.strip())
        if m:
            benches.append(
                {
                    "name": m.group(1),
                    "iters": int(m.group(2)),
                    "ns_per_op": float(m.group(3)),
                    "mb_per_s": float(m.group(4)) if m.group(4) else None,
                    "b_per_op": float(m.group(5)) if m.group(5) else None,
                    "allocs_per_op": int(m.group(6)) if m.group(6) else 0,
                }
            )
    return meta, benches


def pair_up(benches):
    by_name = {b["name"]: b for b in benches}
    pairs = []
    for name, b in by_name.items():
        if not name.endswith("Scalar"):
            continue
        base = name[: -len("Scalar")]
        other = by_name.get(base + "Batch")
        if other is None:
            continue
        pairs.append(
            {
                "base": base.removeprefix("Benchmark"),
                "scalar_ns_per_op": b["ns_per_op"],
                "batch_ns_per_op": other["ns_per_op"],
                "speedup": round(b["ns_per_op"] / other["ns_per_op"], 3)
                if other["ns_per_op"]
                else None,
            }
        )
    return pairs


def main():
    meta, benches = parse(sys.stdin)
    if not benches:
        sys.stderr.write("bench_to_json: no benchmark lines found on stdin\n")
        sys.exit(1)
    json.dump(
        {"meta": meta, "benchmarks": benches, "pairs": pair_up(benches)},
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
