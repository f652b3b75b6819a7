#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the output of `beyondbloom exp all`.

Usage: go run ./cmd/beyondbloom exp all > exp_full_output.txt
       python3 scripts/gen_experiments_md.py exp_full_output.txt > EXPERIMENTS.md
"""
import sys
import re

COMMENTARY = {
    "E1": """**Paper claim (§2, §2.7).** A dynamic filter needs n·lg(1/ε)+Ω(n) bits: the
quotient filter pays +2.125n (RSQF layout; the original 3-bit layout pays
+3n), the cuckoo filter +3n, while a Bloom filter pays a multiplicative
1.44·n·lg(1/ε) — so Bloom wins only when ε is large. Static filters do
better: XOR = 1.23·n·lg(1/ε), ribbon ≈ 1.005·n·lg(1/ε)+0.008n.

**Measured.** The table reproduces every shape: Bloom's overhead is exactly
1.44× at every ε; the fingerprint filters' additive overhead (2.125 or 3
bits, divided by the 0.93 load factor) makes Bloom win at ε=2⁻⁴ and lose
from 2⁻⁸ on; `quotient(rsqf)` sits below `quotient(3bit)` by the predicted
~0.9 bits/key; XOR measures 1.23× throughout; our ribbon (1.05
provisioning, without the paper's smash/bumping refinements) lands at
1.07-1.08×. Measured FPRs track the targets.""",

    "E2": """**Paper claim (§2.1).** Quotient filters resolve collisions by Robin-Hood
shifting, cuckoo filters by kicking; both degrade as occupancy rises, and
these mechanics define the dynamic-filter performance envelope.

**Measured.** Both filters lose insert throughput monotonically with load;
the quotient filter (whose mutations here rewrite the enclosing region —
see DESIGN.md §3) falls off faster, the cuckoo filter keeps ~10 Mops
inserts at 0.95 load where its kick chains lengthen. Lookups stay fast for
both, as the paper's mechanics predict.

The batch columns probe the same keys through `ContainsBatch` in 256-key
batches (hash-once/probe-many; DESIGN.md §6). At this experiment's scale
the tables are a few hundred KB — cache-resident — so memory-level
parallelism contributes little: the quotient filter, whose probe is a
sequential cluster walk batching can only hash-amortize, stays at ~1×.
The cuckoo filter still gains 1.1–2× because its batched probe replaces
the branchy slot-by-slot compare with one branch-free 64-bit window test
per bucket. The full payoff is in the memory-bound regime: E24 measures
multi-tens-of-MB filters as interleaved scalar/batch pairs and records
1.2–5.1× per-filter speedups in `BENCH_batch.json`.""",

    "E3": """**Paper claim (§2.2).** Plain quotient-filter doubling sacrifices one
fingerprint bit per expansion, so its FPR doubles each time "and
eventually the fingerprint bits run out"; chained filters keep their FPR
but queries must probe every link; InfiniFilter expands while keeping fast
queries and a stable FPR.

**Measured.** `qf_doubling` doubles its FPR with each doubling (5e-4 →
3.1e-2 across six expansions). `chained_cuckoo` tracks the same compound
FPR growth (one ε per link) and pays ~1.8µs per query across 33 links;
`scalable_bloom` holds FPR flat by tightening each stage but pays 46
bits/key and 7-probe queries. `infinifilter` holds ~1e-4 FPR flat through
six doublings with single-structure queries — the paper's punchline —
while the preallocated baseline needs the final size up front. Its
bits/key is the quotient table it lives on: 2^19 slots of 17 code bits
plus 3 metadata bits, at load 0.5 after the last doubling, so 40.0. (The
bucket-list layout it replaced reported 24.2, a formula for what the
packed layout would cost, while its heap held ~400 bits/key.)""",

    "E4": """**Paper claim (§2.3).** An adaptive filter sees O(εn) false positives on
*any* sequence of n negative queries, even adversarially repeated ones;
static filters repay the same FP forever. Bender et al. also compare
adapting against caching recent FPs.

**Measured.** In the repeat attack (50 discovered FPs replayed 1000×), the
static cuckoo filter pays on every repeat (~25k FPs), the bounded FP cache
thrashes once distinct FPs exceed its 16 slots (~15k FPs), while the
adaptive cuckoo (selector swap) and adaptive QF (broom-style extensions)
pay ~once per distinct FP (23 and 2 total). Under Zipfian negatives the
ordering is the same with smaller gaps — the skew is what a cache can
partially exploit, exactly the adapt-vs-cache trade of the literature.""",

    "E5": """**Paper claim (§2.4).** Bloomier filters have PRS = NRS = 1 but a frozen
key set; quotient/cuckoo maplets have PRS = 1+ε and NRS = ε with full
dynamism; SlimDB-style collision resolution buys PRS = 1 dynamically by
spilling colliding keys to an auxiliary dictionary.

**Measured.** All four maplets return the correct value for every present
key (wrong_value_rate 0). The dynamic maplets' NRS ≈ 0.003 ≈ ε·(1+slack);
their PRS of 1.00(+ε, hidden by rounding) against Bloomier's exactly-1 and
the resolving maplet's exactly-1 match the taxonomy. Space is comparable
across designs at these parameters.""",

    "E6": """**Paper claim (§2.5).** Rosetta is robust for point and short-range
queries but "as the querying range gets larger, Rosetta's FPR grows
rapidly and eventually provides no filtering"; Grafite "exhibits a more
robust performance under workloads with high correlations between keys
and queries"; an adversarial key set (each pair sharing a unique long
prefix) "can destroy SuRF's space efficiency"; SNARF is learned and
CDF-dependent; ARF "only works well with a stable or repeating integer
workload".

**Measured.** (a) Rosetta: 0.01 → 1.00 FPR as ranges grow from 1 to 64k;
Grafite flat near 0 until its provisioned max length; SuRF low throughout
(uniform random keys are its friendly case); SNARF a flat ~0.06 at its
9-bit budget; trained ARF answers its trained workload at ~0.01. (b) The
correlated workload (queries starting 2 past a key): SuRF, SNARF and
Proteus collapse to FPR ≈ 1.0 while Grafite stays at 0 and Rosetta at
~0.01 — precisely the robustness claim. (c) Adversarial prefix pairs
inflate SuRF from 14.3 to 42.4 bits/key; Grafite is structurally immune
(27.5 both ways).""",

    "E7": """**Paper claim (§2.6).** Fixed-width CBF counters saturate (and deletes can
then under-count); the d-left CBF saves "a factor of two or more" over a
CBF; the spectral filter handles skew with variable-width counters; the
CQF's variable-length counters make its space scale with distinct keys,
not total count, on skewed input.

**Measured.** (a) The CBF saturates tens of thousands of 4-bit counters
under Zipf skew and mis-counts ~10% of keys; d-left uses ~half the CBF's
space (31 vs 54 bits at s=1.1, the paper's "factor of two or more"); the
CQF is close behind at low skew and pulls far ahead as skew grows (67 vs
124-215 at s=1.5, 515 vs 950-1650 at s=2.0) — its space scaling with
distinct keys, not total count; the spectral filter is exact everywhere
but pays for its fixed base array. (b) The delete-fidelity table shows
the tutorial's hazard directly: after inserting 100 and deleting 100, the
saturated CBF still reads 15 (stuck), while the CQF reads 0.""",

    "E8": """**Paper claim (§2.7).** Static filters approach n·lg(1/ε) bits; ribbon is
the smallest with "better construction and query times" than previous
algebraic filters, "though its query times remain slower than the fast
competing filters".

**Measured.** ribbon 8.8 < xor 9.84 < bloom 11.54 bits/key at ε=2⁻⁸; build
cost bloom ≪ xor < ribbon; query cost xor < bloom ≪ ribbon (4×) — the
space-vs-query trade the paper describes, with all measured FPRs on
target.""",

    "E9": """**Paper claim (§2.8).** Stacked filters "exploit knowledge of frequently
queried non-existing keys ... and thereby exponentially decrease the false
positive rate when querying for them"; classifier-based filters learn to
answer hot positives directly and "avoid having to insert them into a
regular filter to save space".

**Measured.** At equal total space, the 3-layer stack cuts hot-negative
FPR from 1.8e-2 to 4e-4 and the 5-layer stack to 0, while cold-negative
FPR stays ~2e-2 — the exponential suppression. The learned variant (E9b)
absorbs the Zipf-hot positive keys into its classifier and undercuts the
plain filter's space at a high-precision budget; with our memorizing
classifier the saving is bounded by (budget − 16) bits per hot key, as
noted in DESIGN.md.""",

    "E10": """**Paper claim (§3.1).** Per-file Bloom filters let point queries skip
files; Monkey's allocation reduces query cost from O(ε·lg N) to O(ε);
maplets (SlimDB/Chucky) map each key straight to its file; Dostoevsky's
lazy leveling cuts write amplification without hurting point reads.

**Measured.** (a) Misses cost 4 I/Os unfiltered (one per level), 0.035
with uniform Blooms, 0.0125 with Monkey (sum of FPRs dominated by the last
level) and 0.011 with the global maplet — which also probes one filter
instead of four per query. (b) Compaction: write amp tiering 4.0 < lazy
leveling 5.8 < leveling 8.8, read cost tiering ~3× leveling while lazy
leveling matches leveling's reads — Dostoevsky's trade, reproduced.""",

    "E11": """**Paper claim (§3.1/§2.5).** Range filters exist to avoid "unnecessary
disk I/Os for a range query" on LSM-trees (the `BETWEEN` query of the
introduction).

**Measured.** Unfiltered empty scans always cost one I/O per overlapping
run; SuRF and Grafite eliminate essentially all of it (0 and 0.003 I/O per
empty scan), Rosetta most of it (0.09 at this budget), while scans that do
return data still pay their single productive I/O.""",

    "E12": """**Paper claim (§3.2).** The CQF underlies exact and approximate k-mer
counting (Squeakr); a Bloom-filter de Bruijn graph has "little effect on
the large-scale structure of the graph until the false positive rate
becomes very high (i.e., ≥ 0.15)" (Pell et al.); removing the *critical*
false positives yields an exact navigational representation (Chikhi &
Rizk); a cascading Bloom filter shrinks that correction structure
(Salikhov et al.); deBGR self-corrects a weighted graph using abundance
invariants.

**Measured.** (a) The approximate CQF counter stores ~90k distinct 17-mers
in 32 bits each vs 128 for a Go map; the exact-fingerprint CQF (56 bits)
is still ~2.3× smaller than the map. (b) Graph structure: components and
phantom-neighbor rate stay benign at FPR 0.0009-0.023, then explode
between FPR 0.15 and 0.24 — the 0.15 threshold (the huge component counts
at high FPR are the capped-percolation artifact described in the package
docs; the phantom-rate column is the clean signal). (c) The exact table
costs 21 bits/k-mer; the cascade replaces it at 3.6 bits/k-mer — the
memory reduction claim. (d) deBGR-style correction repairs 80-85% of the
coarse CQF's wrong counts with zero undercounts.""",

    "E13": """**Paper claim (§3.2).** "Mantis proved to be smaller, faster, and exact
compared to the SBT which is an approximate index."

**Measured.** Mantis: 0.69 MiB, exact, ~590 maplet probes per query. SBT:
3.2 MiB, approximate, ~3400 Bloom probes per query. Both answered this
workload's queries correctly (the SBT's approximation shows as extra
probes and space, not errors, at 12 bits/k-mer).""",

    "E14": """**Paper claim (§3.3).** Filters front malicious-URL blocklists; important
benign URLs must not repeatedly pay the verification penalty. Static
no-lists (Bloomier/SSCF/Integrated) protect only a known benign set;
adaptive filters "solve the yes/no list problem in both the static and
dynamic case".

**Measured.** Per-window benign false blocks: plain Bloom is flat (~380
per window, forever); the static no-list is flat at ~130 (protects the
known hot set, cold benign URLs keep paying); the seesaw's dynamic
extension converges further but *misses ~800 malicious requests* — the
false negatives the tutorial warns its cell-pressing "can also
introduce"; the adaptive blocker decays 71 → 11 across ten windows while
blocking every malicious request — the guaranteed solution to the
dynamic yes/no-list problem.""",

    "E15": """**Paper claim (§3.1).** Circular-log engines "flush all application
insertions/updates/deletes as log records into an append-only file ...
occasionally garbage-collect ... there is a maplet in memory to map each
entry in the log. It is crucial for these maplets to support updates,
deletes, and expansion ... Interestingly, no system that we are aware of
uses maplets that meet these requirements."

**Measured.** The expandable quotient maplet meets all three
requirements in one structure: it doubles several times during load
(expansion), gets re-pointed on every update and GC move (updates), and
sheds mappings on tombstones (deletes). Lookup cost stays at ~1 log read
per hit (PRS = 1+ε) through every phase, and GC write amplification grows
with update churn exactly as a log-structured engine's should. The miss
cost is ε — but note ε itself has grown: this maplet expands by the §2.2
bit-sacrifice mechanism, so each doubling doubles NRS. That residual is
precisely the gap the tutorial says InfiniFilter-style maplets should
close, measured in one table.""",

    "E18": """The concurrency claim behind DESIGN.md §8: queries run against
immutable published snapshots, so reads keep flowing — and stay exactly
correct (wrong_results is asserted 0) — while background flushes and
compactions rewrite the tree underneath them. Absolute scaling follows
GOMAXPROCS (on this single-hardware-thread container the goroutines
time-slice, so aggregate throughput is ~flat as readers grow); the
reproduction target is the invariant, not the slope. E18b shows what
moving flush/compaction off the write path buys: the p99.9 put latency
drops ~4× because a Put no longer pays the flush-and-compact cascade
inline, while the L0RunBudget backpressure bounds how far ingest can
run ahead of the engine.""",

    "E19": """The durability claim behind DESIGN.md §9: the LSM store under the
filters must survive the write path failing. E19a is the proof by
exhaustion — the scripted workload runs over the crash-simulating
filesystem (`fault.CrashFS`) and is killed after *every* mutating
filesystem operation (mid-append, mid-rotation, mid-flush,
mid-checkpoint, mid-retire), then recovered and compared against the
write history. Every mode recovers at every crash point with zero lost
acknowledged writes and zero invented writes; torn_repairs counts the
crash points whose final log record had to be truncated away —
routine, not exceptional. E19b prices the modes on the same simulated
device, isolating protocol overhead from device fsync cost (reported
separately as fsyncs_per_1k): the WAL costs ~0.4µs at the median.
Group-commit p99.9 within 2× of the no-WAL baseline was met (1.6×) on
the single-hardware-thread container it was first measured on and is
**not met** on the 2-vCPU box that produced this table: four writers
share two cores, group commit still pays one fsync per put
(`fsyncs_per_1k` 994–1000; ROADMAP item 5) and the ratio read 3.3–41×
over seven runs — the non-gating `within_2x` row. `lost_acked_total`
and `invented_total` gate `beyondbloom exp E19`'s exit code.""",

    "E20": """The probe-engine frontier behind DESIGN.md §10: three ways to spend
the same bits/key on a Bloom-shaped filter. Classic Bloom is the FPR
baseline but pays k dependent cache misses per probe; blocked Bloom
(one 512-bit block per key, one miss) pays a balls-into-bins convexity
penalty that grows with bits/key (1.09× classic at 8, 10.3× at 24);
two-choice blocked (Schmitz et al., arXiv 2501.18977) balances block
loads at insert time but its OR-of-two-blocks query has a hard ~2× per-
block FPR floor. Measured: the floor dominates at low budgets (choices
1.64-1.66× classic at 8-12 bits/key, behind blocked), and the curves
cross at ~24 bits/key (choices 7.7× vs blocked 10.3×) where blocked's
skewed-block tail overtakes the constant floor — so plain blocked is
the right default and choices is the high-budget/overfill-tolerant
variant, exactly the regime split README's variant table gives. Speed:
both blocked variants beat classic on scalar probes (one or two
parallel misses vs k serial); the batch columns on this L3-generous
container compress toward 1× for the single-miss filters because out-
of-order execution already overlaps their scalar misses —
E24's pairs (BENCH_batch.json) on the same hardware show the same compression, and
the staged kernels' win tracks working-set size. The overfill table
shows mean FPR degrading in near-lockstep (choices/blocked ~1.3-1.4×
flat from 1× to 2× design load): two-choice balancing controls the
per-block load *spread* (tail), not the mean, under uniform inserts.""",

    "E21": """The filter service measured end to end (DESIGN.md §11): does
probing the requests that are already waiting as one batch buy real
capacity, and what does it cost in latency when few are waiting?
The capacity table is the ceiling — the batched probe engine runs
1.4-1.7× the scalar engine over the Zipfian service stream. The
headline E21a sweep is OPEN-LOOP: Poisson arrivals replayed at offered
loads set relative to measured scalar capacity, with each request's
latency taken from its *scheduled* arrival, so queueing counts and an
overloaded server shows a diverging tail instead of a flattering
throughput number. The batched server never waits for company: when
the dispatcher looks, everything already due (at most one 256-key
chunk) goes down `Engine.ContainsBatch` in one call. Below the scalar
knee that is a batch of a few keys at a ~1 µs p50; as load rises
avg_batch grows by itself to the full 256, and past the knee the
batched server still keeps up where the scalar one has saturated at
its per-request ceiling — more throughput at a far lower p99, the
non-gating `batched_beats_scalar_at_high_load_*` acceptance rows — with
zero wrong membership answers in every cell (`wrong_results_total`,
which gates). The dispatcher is the client's side of the service: the
server itself answers point requests directly and probes a batch frame
whole, so this is the batching a client gets by framing what it has.""",

    "E24": """**Paper claim (§2, §3.3).** A blocked Bloom filter answers in one
cache line per probe, and a batch of probes amortises its hashing and
overlaps its cache misses. Both are claims of speed relative to a
baseline, so each is measured as a ratio: two closures over one
fixture, timed in 101 alternating ~1 ms slices (`metrics.Interleave`),
so a slow minute of the host lands on both sides of a slice.

**Measured** (ten full-scale runs on the 2-vCPU reference box, one
afternoon; the table is the last). At 2^24 keys batching pays 4.1–5.1× for the blocked Bloom
filter, whose AVX-512 probe kernel is 1.6–1.9× the Go one; 1.9–2.3×
for two-choice blocked, 1.8–2.1× for xor, 1.8–2.0× for cuckoo and
1.9–2.1× for sharded cuckoo; 1.3–1.5× for classic Bloom and 1.2–1.3×
(1.16 once) for the quotient filter, whose probe is a cluster walk that batching
can only hash-amortise. The sweep rises with batch size (cuckoo at 50 %
occupancy: 1.3× at 16 keys, 1.6–1.8× at 1024). `InsertBatch` beats an
`Insert` loop 2.8–4.4× at 2^24 keys. A one-key batch costs what a
scalar call does (`contains_one` 0.89–0.95, `insert_one` 0.96–1.05);
the Go kernels' 8 KiB of zeroed stack arrays made it 4–5× dearer
before (0.22 and 0.23 with that dispatch restored). No pair allocates
(gating at every scale). Eight speed-ups spread ≤ 10 % over the runs
their floors come from and gate at full scale on 0.9 × their lowest
reading; the rest moved 12–50 % with the host — the 2^24-key filters
are a fraction of its 300 MiB shared L3, and the AVX-512 pairs moved
most — and are listed with their spread. The codec rounds are absolute
ns/key, context that never gates.""",

    "A1": """SuRF's own design space: hash suffixes cut point FPR (in space) but do
nothing for correlated range queries, which need real suffixes — and even
real suffixes can't fix the truncation-interval weakness at gap 2.""",

    "A2": """Why the Rosetta implementation uses a bottom-heavy split: an even split
starves the upper Blooms, the doubting recursion multiplies surviving
paths, and FPR balloons by 100× at short ranges.""",

    "A3": """The cuckoo fingerprint sizing rule (ε ≈ 2·bucket/2^f): each bit roughly
halves the FPR; achievable load stays ~0.95 at all widths, so space is a
clean linear trade.""",

    "A4": """Stacked depth: hot-negative suppression is exponential in depth and
saturates by depth 5; cold-negative FPR and total space barely move
because the deeper layers are tiny.""",

    "A5": """LSM size ratio: T controls the levels/write-amp balance; the miss cost is
nearly flat because Monkey reallocates filter bits as the level count
changes.""",

    "A6": """The sharded wrapper demonstrates correctness under concurrency (see the
race-detector tests); on this single-core container, throughput cannot
scale with goroutines, so the speedup column is ~1.""",
}

HEADER = """# EXPERIMENTS — paper claims vs measured results

The tutorial (*Beyond Bloom*, SIGMOD-Companion 2024) has no empirical
tables or figures of its own; it makes quantitative claims inline.
DESIGN.md §2 maps each claim to an experiment; this file records, for
every experiment, the claim and the measured outcome.

All numbers below are the output of

    go run ./cmd/beyondbloom exp all

on this repository (deterministic: seeded workloads, fixed filter seeds;
timings vary with hardware — shapes, not absolute numbers, are the
reproduction target). Regenerate any single table with
`go run ./cmd/beyondbloom exp <id>`; the same runners back the
`BenchmarkE*` suite in bench_test.go.

"""


def main(path):
    text = open(path).read()
    sections = re.split(r"^### ", text, flags=re.M)
    out = [HEADER]
    for sec in sections:
        if not sec.strip():
            continue
        header, _, body = sec.partition("\n")
        m = re.match(r"(E\d+|A\d+) — (.*)", header)
        if not m:
            continue
        eid, title = m.groups()
        out.append(f"## {eid} — {title}\n")
        commentary = COMMENTARY.get(eid, "")
        if commentary:
            out.append(commentary + "\n")
        body = re.sub(r"\(%s completed in .*\)" % eid, "", body).rstrip()
        out.append("```\n" + body.strip() + "\n```\n")
    print("\n".join(out))


if __name__ == "__main__":
    main(sys.argv[1])
