package bloom

// haveAVX512 reports whether this CPU and its OS run the AVX-512
// kernels, containsBatchAVX512 and insertStripeAVX512: AVX-512F,
// AVX-512DQ, BMI2 and POPCNT, and an XCR0 saying the OS saves the
// opmask and all 32 ZMM registers. Every instruction in
// blocked_amd64.s past baseline amd64 needs one of these bits:
//
//	instruction                                  CPUID bit
//	every ZMM op but VPMULLQ: VPGATHERQQ,        AVX-512F (leaf 7 EBX 16)
//	VPCOMPRESSQ, VPCMPUQ, VPTESTMQ, VPTERNLOGQ,
//	VPMULUDQ, VPSLLVQ, VPSRLVQ, .BCST operands
//	VPMULLQ, KXNORB, KMOVB                       AVX-512DQ (leaf 7 EBX 17)
//	PDEPQ, SHLXQ                                 BMI2 (leaf 7 EBX 8)
//	POPCNTL                                      POPCNT (leaf 1 ECX 23)
//
// PREFETCHT0 is SSE2, part of every amd64 CPU.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, popcnt = 1 << 27, 1 << 23 // leaf 1 ECX: XGETBV is usable; POPCNT
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|popcnt) != osxsave|popcnt {
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

// insertStripeAVX512 is Blocked.insertStripe over blocks [lo, lo+span)
// for len(keys) a multiple of 8, with seed already multiplied by
// mixSeedMul. It writes words without bounds checks: the caller
// guarantees vectorFits and lo+span <= numBlocks.
//
//go:noescape
func insertStripeAVX512(words, keys []uint64, seed, numBlocks, lo, span uint64, k uint)
