package bloom

// haveAVX512 reports whether this CPU and its OS run
// containsBatchAVX512: AVX-512F (ZMM integer ops, VPGATHERQQ),
// AVX-512DQ (VPMULLQ, KXNORB, KMOVB), BMI2 (PDEPQ), and an XCR0 saying
// the OS saves the opmask and all 32 ZMM registers.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // leaf 1 ECX: XGETBV is usable
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const xmm, ymm, opmask, zmmHi256, hi16ZMM = 1 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7
	const state = xmm | ymm | opmask | zmmHi256 | hi16ZMM
	if xcr0, _ := xgetbv(); xcr0&state != state {
		return false
	}
	const avx512f, avx512dq, bmi2 = 1 << 16, 1 << 17, 1 << 8 // leaf 7 EBX
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq|bmi2) == avx512f|avx512dq|bmi2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// containsBatchAVX512 is Blocked.ContainsBatch for len(keys) a multiple
// of 8, with seed already multiplied by mixSeedMul. It reads words
// without bounds checks: the caller guarantees vectorFits.
//
//go:noescape
func containsBatchAVX512(words, keys []uint64, out []bool, seed, numBlocks uint64, k uint)
