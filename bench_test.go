package beyondbloom

// The experiment benchmarks regenerate every table of the experiment
// suite (the stand-ins for the tutorial's tables/figures; see DESIGN.md
// §2). Each BenchmarkE<n> runs its experiment end to end at a reduced
// scale so `go test -bench=.` stays tractable; run
// `go run ./cmd/beyondbloom exp all` for the full-scale tables recorded
// in EXPERIMENTS.md. The Filter* micro-benchmarks below compare the
// individual operations across filter classes.

import (
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/cuckoo"
	"beyondbloom/internal/experiments"
	"beyondbloom/internal/quotient"
	"beyondbloom/internal/ribbon"
	"beyondbloom/internal/workload"
	"beyondbloom/internal/xorfilter"
)

const benchScale = 0.1

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tables := e.Run(experiments.Config{Scale: benchScale})
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1_SpaceVsFPR(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2_DynamicThroughput(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3_Expansion(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4_Adaptivity(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5_Maplets(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6_RangeFilters(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7_CountingFilters(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8_StaticFilters(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9_StackedFilters(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10_LSMPointLookups(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11_LSMRangeScans(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_KmersDeBruijn(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13_SequenceSearch(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14_URLBlocking(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15_CircularLog(b *testing.B)      { benchExperiment(b, "E15") }
func BenchmarkA1_SurfSuffix(b *testing.B)        { benchExperiment(b, "A1") }
func BenchmarkA2_RosettaSplit(b *testing.B)      { benchExperiment(b, "A2") }
func BenchmarkA3_CuckooWidth(b *testing.B)       { benchExperiment(b, "A3") }
func BenchmarkA4_StackedDepth(b *testing.B)      { benchExperiment(b, "A4") }
func BenchmarkA5_LSMSizeRatio(b *testing.B)      { benchExperiment(b, "A5") }
func BenchmarkA6_ShardedScaling(b *testing.B)    { benchExperiment(b, "A6") }

// Cross-filter micro-benchmarks: one insert and one lookup benchmark per
// dynamic filter class, and build/query for the static classes, all at
// the same ε ≈ 2^-10.

const microN = 1 << 18

func BenchmarkFilterInsert_Bloom(b *testing.B) {
	f := bloom.New(b.N+1, 1.0/1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkFilterInsert_Quotient(b *testing.B) {
	f := quotient.New(24, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Insert(uint64(i)) != nil {
			b.Fatal("full")
		}
	}
}

func BenchmarkFilterInsert_Cuckoo(b *testing.B) {
	f := cuckoo.New(b.N+16, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkFilterInsert_Infini(b *testing.B) {
	f, err := quotient.NewInfini(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func microKeys() []uint64 { return workload.Keys(microN, 42) }

func BenchmarkFilterLookup_Bloom(b *testing.B) {
	keys := microKeys()
	f := bloom.New(microN, 1.0/1024)
	for _, k := range keys {
		f.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%microN])
	}
}

func BenchmarkFilterLookup_Quotient(b *testing.B) {
	keys := microKeys()
	f := quotient.New(19, 10)
	for _, k := range keys {
		f.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%microN])
	}
}

func BenchmarkFilterLookup_Cuckoo(b *testing.B) {
	keys := microKeys()
	f := cuckoo.New(microN, 13)
	for _, k := range keys {
		f.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%microN])
	}
}

func BenchmarkFilterLookup_Xor(b *testing.B) {
	keys := microKeys()
	f, err := xorfilter.New(keys, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%microN])
	}
}

func BenchmarkFilterLookup_Ribbon(b *testing.B) {
	keys := microKeys()
	f, err := ribbon.New(keys, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%microN])
	}
}

func BenchmarkStaticBuild_Xor(b *testing.B) {
	keys := microKeys()
	b.SetBytes(microN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xorfilter.New(keys, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticBuild_Ribbon(b *testing.B) {
	keys := microKeys()
	b.SetBytes(microN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ribbon.New(keys, 10); err != nil {
			b.Fatal(err)
		}
	}
}
