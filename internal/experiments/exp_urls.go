package experiments

import (
	"math/rand"
	"strconv"

	"beyondbloom/internal/metrics"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/yesno"
)

// runE14 reproduces §3.3: blocking malicious URLs. Expected shapes: the
// plain Bloom blocker keeps paying the verification penalty on the same
// hot benign URLs forever; a static no-list protects exactly the benign
// sample known at build time; the adaptive filter converges — its
// false-block rate per window goes to ~zero as the no-list self-builds.
func runE14(cfg Config) []*metrics.Table {
	numMal := cfg.n(20000)
	urls := workload.URLs(numMal*3, 14)
	malicious := urls[:numMal]
	benign := urls[numMal:]
	hot := benign[:200]
	malSet := map[string]bool{}
	for _, u := range malicious {
		malSet[u] = true
	}
	rng := rand.New(rand.NewSource(140))
	streamLen := cfg.n(200000)
	stream := make([]string, streamLen)
	for i := range stream {
		switch r := rng.Float64(); {
		case r < 0.05:
			stream[i] = malicious[rng.Intn(len(malicious))]
		case r < 0.65:
			stream[i] = hot[rng.Intn(len(hot))]
		default:
			stream[i] = benign[rng.Intn(len(benign))]
		}
	}

	blockers := []struct {
		name string
		b    yesno.Blocker
	}{
		{"plain_bloom", yesno.NewPlainBloom(malicious, 8)},
		{"static_nolist", yesno.NewStaticNoList(malicious, hot, 8)},
		{"seesaw_dynamic", yesno.NewSeesaw(malicious, hot, 8)},
		{"adaptive_qf", yesno.NewAdaptive(malicious, sizeQ(numMal), 6)},
	}

	// Per-window false blocks: the adaptive blocker should converge.
	windows := 10
	winT := metrics.NewTable("E14a: benign false blocks per window ("+strconv.Itoa(streamLen)+" requests)",
		rowHeaders(windows)...)
	// missed_malicious counts malicious requests that slipped through —
	// zero for every design except the seesaw's dynamic no-list, whose
	// cell-pressing can release malicious URLs (the documented hazard).
	sumT := metrics.NewTable("E14b: totals",
		"blocker", "false_blocks", "verifications", "malicious_blocked", "missed_malicious", "KiB")
	maliciousRequests := 0
	for _, u := range stream {
		if malSet[u] {
			maliciousRequests++
		}
	}
	winSize := streamLen / windows
	for _, bl := range blockers {
		row := []any{bl.name}
		var total yesno.Stats
		for w := 0; w < windows; w++ {
			st := yesno.Run(bl.b, stream[w*winSize:(w+1)*winSize], malSet)
			row = append(row, st.FalseBlocks)
			total.FalseBlocks += st.FalseBlocks
			total.Verifications += st.Verifications
			total.Blocked += st.Blocked
		}
		winT.AddRow(row...)
		sumT.AddRow(bl.name, total.FalseBlocks, total.Verifications, total.Blocked,
			maliciousRequests-total.Blocked,
			float64(bl.b.SizeBits())/8/1024)
	}
	return []*metrics.Table{winT, sumT}
}

func rowHeaders(windows int) []string {
	hs := []string{"blocker"}
	for w := 1; w <= windows; w++ {
		hs = append(hs, "w"+strconv.Itoa(w))
	}
	return hs
}
