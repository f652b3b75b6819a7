package experiments

import (
	"beyondbloom/internal/kmer"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/seqindex"
	"beyondbloom/internal/workload"
)

// runE12 reproduces §3.2's k-mer claims: the CQF counts skewed k-mer
// multisets compactly; the Bloom-backed de Bruijn graph keeps its
// large-scale structure until the FPR nears 0.15; removing the critical
// false positives makes navigation exact, and a cascading Bloom filter
// shrinks the removal structure.
func runE12(cfg Config) []*metrics.Table {
	genomeLen := cfg.n(100000)
	genome := workload.DNA(genomeLen, 12)
	reads := workload.Reads(genome, genomeLen/50, 100, 0.005, 13)
	const k = 17

	// E12a: counter comparison.
	cntT := metrics.NewTable("E12a: k-mer counting (k=17, genome "+itoa(genomeLen)+"bp)",
		"counter", "distinct_kmers", "bits/distinct", "exact")
	counter := kmer.NewCounter(k, genomeLen*2, 1.0/256)
	exact := kmer.NewExactCounter(k, genomeLen*2)
	naive := map[uint64]uint64{}
	for _, r := range reads {
		counter.AddRead(r)
		exact.AddRead(r)
		kmer.Iterate(r, k, func(code uint64) { naive[code]++ })
	}
	nd := len(naive)
	cntT.AddRow("cqf(approx)", counter.Distinct(), float64(counter.SizeBits())/float64(nd), "no")
	cntT.AddRow("cqf(exact fp)", exact.Distinct(), float64(exact.SizeBits())/float64(nd), "yes")
	cntT.AddRow("go_map(baseline)", nd, 128.0, "yes") // 2 words/entry, ignoring map overhead

	// E12b: de Bruijn graph structure vs Bloom FPR.
	codes := make([]uint64, 0, nd)
	for c := range naive {
		codes = append(codes, c)
	}
	dbgT := metrics.NewTable("E12b: de Bruijn graph vs Bloom bits (structure survives FPR < 0.15)",
		"bits/kmer", "bloom_fpr", "components", "phantom_neighbor_rate")
	trueSet := map[uint64]bool{}
	for _, c := range codes {
		trueSet[c] = true
	}
	for _, bpk := range []float64{16, 8, 4, 3, 2} {
		g := kmer.NewDeBruijn(k, codes, bpk)
		neg := workload.DisjointKeys(20000, 12)
		fpr := metrics.FPR(probeDBG{g}, neg)
		phantoms, checked := 0, 0
		for i, c := range codes {
			if i%7 != 0 {
				continue
			}
			for _, nb := range g.Neighbors(c) {
				checked++
				if !trueSet[nb] {
					phantoms++
				}
			}
		}
		rate := 0.0
		if checked > 0 {
			rate = float64(phantoms) / float64(checked)
		}
		dbgT.AddRow(bpk, fpr, g.Components(codes), rate)
	}

	// E12c: exactness structures.
	exT := metrics.NewTable("E12c: exact navigation structures (bloom 6 bits/kmer)",
		"structure", "critical_fps", "extra_bits", "bits/kmer")
	g := kmer.NewDeBruijn(k, codes, 6)
	cfps := g.CriticalFPs(codes)
	tableBits := g.InstallExactTable(cfps)
	g2 := kmer.NewDeBruijn(k, codes, 6)
	cascadeBits := g2.InstallCascade(codes, cfps, 10)
	exT.AddRow("exact_table(chikhi-rizk)", len(cfps), tableBits, float64(tableBits)/float64(nd))
	exT.AddRow("cascading_bloom(salikhov)", len(cfps), cascadeBits, float64(cascadeBits)/float64(nd))

	// E12d: deBGR-style self-correction of the weighted graph: the edge
	// invariant repairs most node-count overcounts of a coarse CQF.
	wT := metrics.NewTable("E12d: weighted de Bruijn graph (deBGR) self-correction",
		"node_cqf_delta", "raw_wrong_rate", "corrected_wrong_rate", "undercounts")
	for _, delta := range []float64{1.0 / 16, 1.0 / 64, 1.0 / 256} {
		w := kmer.NewWeighted(k, nd*2, delta)
		truth := map[uint64]uint64{}
		for _, r := range reads {
			w.AddRead(r)
			kmer.Iterate(r, k, func(code uint64) { truth[code]++ })
		}
		rawWrong, corrWrong, under := 0, 0, 0
		for code, want := range truth {
			if w.RawCount(code) != want {
				rawWrong++
			}
			got := w.Count(code)
			if got != want {
				corrWrong++
			}
			if got < want {
				under++
			}
		}
		tn := float64(len(truth))
		wT.AddRow(delta, float64(rawWrong)/tn, float64(corrWrong)/tn, under)
	}
	return []*metrics.Table{cntT, dbgT, exT, wT}
}

// probeDBG adapts a de Bruijn graph to the metrics.Prober interface over
// arbitrary key probes (masked into k-mer space).
type probeDBG struct{ g *kmer.DeBruijn }

func (p probeDBG) Contains(key uint64) bool {
	return p.g.Present(kmer.Canonical(key&(1<<(2*17)-1), 17))
}

// runE13 reproduces §3.2's index comparison: Mantis is exact and smaller
// than the SBT at comparable query quality.
func runE13(cfg Config) []*metrics.Table {
	numExp := 32
	// A genome is 1.25 genomeLen; queries start up to 948 bases from its end.
	genomeLen := max(cfg.n(20000), 800)
	const k = 15
	backbone := workload.DNA(genomeLen, 131)
	sets := make([][]uint64, numExp)
	genomes := make([][]byte, numExp)
	for e := 0; e < numExp; e++ {
		g := append(append([]byte{}, backbone...), workload.DNA(genomeLen/4, 131+int64(e)+1)...)
		genomes[e] = g
		set := map[uint64]struct{}{}
		kmer.Iterate(g, k, func(code uint64) { set[code] = struct{}{} })
		codes := make([]uint64, 0, len(set))
		for c := range set {
			codes = append(codes, c)
		}
		sets[e] = codes
	}
	sbt := seqindex.NewSBT(sets, 12)
	mantis := seqindex.NewMantis(k, sets)

	t := metrics.NewTable("E13: SBT vs Mantis ("+itoa(numExp)+" experiments, theta=0.8)",
		"index", "MiB", "exact", "probes/query", "false_hits", "missed_hits")
	queries := 50
	truth := func(q []uint64) map[int]bool {
		need := int(0.8 * float64(len(q)))
		out := map[int]bool{}
		for e, codes := range sets {
			set := map[uint64]bool{}
			for _, c := range codes {
				set[c] = true
			}
			hits := 0
			for _, c := range q {
				if set[c] {
					hits++
				}
			}
			if hits >= need {
				out[e] = true
			}
		}
		return out
	}
	evaluate := func(query func([]uint64, float64) []int, probes *int) (falseHits, missed int, probesPerQ float64) {
		*probes = 0
		for i := 0; i < queries; i++ {
			e := i % numExp
			g := genomes[e]
			start := len(g) - 800 - (i%5)*37
			var q []uint64
			kmer.Iterate(g[start:start+600], k, func(c uint64) { q = append(q, c) })
			want := truth(q)
			got := query(q, 0.8)
			gotSet := map[int]bool{}
			for _, x := range got {
				gotSet[x] = true
				if !want[x] {
					falseHits++
				}
			}
			for w := range want {
				if !gotSet[w] {
					missed++
				}
			}
		}
		return falseHits, missed, float64(*probes) / float64(queries)
	}
	fh, ms, pq := evaluate(sbt.Query, &sbt.Probes)
	t.AddRow("sbt", float64(sbt.SizeBits())/8/1024/1024, "no", pq, fh, ms)
	fh, ms, pq = evaluate(mantis.Query, &mantis.Probes)
	t.AddRow("mantis", float64(mantis.SizeBits())/8/1024/1024, "yes", pq, fh, ms)
	return []*metrics.Table{t}
}
