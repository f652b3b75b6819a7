// Package beyondbloom is a feature-rich filter library reproducing
// "Beyond Bloom: A Tutorial on Future Feature-Rich Filters" (Pandey,
// Farach-Colton, Dayan, Zhang; SIGMOD-Companion 2024).
//
// The implementation lives under internal/: one package per filter class
// (bloom, quotient with the InfiniFilter, cuckoo, xorfilter, ribbon,
// bloomier, dleft, prefixfilter, adaptive, stacked, surf, rosetta,
// grafite, snarf, arf, proteus) and one per application substrate (lsm,
// kmer, seqindex, yesno). The experiment suite standing in for the tutorial's
// tables and figures is internal/experiments, driven by cmd/beyondbloom
// and by the benchmarks in bench_test.go. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package beyondbloom
