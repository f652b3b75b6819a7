#include "textflag.h"

// The AVX-512 ContainsBatch kernel of Blocked; blocked_amd64.go has the
// dispatch and the invariants it relies on. Eight keys per ZMM lane
// group; each 256-key chunk runs a hash pass, then a resolve pass.

// Constant registers, set once per call.
#define SEED Z31    // seed * mixSeedMul
#define C0 Z30      // Mix64's additive constant
#define C1 Z29      // Mix64's first multiplier
#define C2 Z28      // Mix64's second multiplier
#define NB Z27      // numBlocks (< 2^32)
#define ONE Z26     // 1, the bit VPTESTMQ reads
#define C0P1 Z25    // C0 + 1: Mix64(h+1) starts at h + C0P1
#define C0P2 Z24    // C0 + 2
#define SEVEN Z23   // word-in-block mask
#define LOW6 Z22    // bit-in-word mask

// MIX64_TAIL finishes Mix64 on x, which already holds its argument plus
// C0; t is clobbered.
#define MIX64_TAIL(x, t) \
	VPSRLQ  $30, x, t; \
	VPXORQ  t, x, x;   \
	VPMULLQ C1, x, x;  \
	VPSRLQ  $27, x, t; \
	VPXORQ  t, x, x;   \
	VPMULLQ C2, x, x;  \
	VPSRLQ  $31, x, t; \
	VPXORQ  t, x, x

// PROBE_WORD sets dst to the word of the probe whose word index
// within the block is g>>wsh&7, shifted right by its bit index g>>bsh&63
// — the Go kernel's terms, so bit 0 is the probe's bit. base holds each
// key's block base word index; DI is &words[0]. Clobbers Z5, Z8 and K1.
#define PROBE_WORD(g, wsh, bsh, base, dst) \
	VPSRLQ     $wsh, g, Z5;         \
	VPANDQ     SEVEN, Z5, Z5;       \
	VPADDQ     base, Z5, Z5;        \
	KXNORB     K1, K1, K1;          \
	VPXORQ     dst, dst, dst;       \
	VPGATHERQQ (DI)(Z5*8), K1, dst; \
	VPSRLQ     $bsh, g, Z8;         \
	VPANDQ     LOW6, Z8, Z8;        \
	VPSRLVQ    Z8, dst, dst

// PROBE ANDs that shifted word into acc; it also clobbers Z7.
#define PROBE(g, wsh, bsh, base, acc) \
	PROBE_WORD(g, wsh, bsh, base, Z7); \
	VPANDQ Z7, acc, acc

// Scratch layout: four 256-word arrays, 64-byte aligned.
#define BASES 0
#define G1S 2048
#define G2S 4096
#define ACCS 6144

// func containsBatchAVX512(words []uint64, keys []uint64, out []bool, seed, numBlocks uint64, k uint)
TEXT ·containsBatchAVX512(SB), 0, $8256-96
	MOVQ words_base+0(FP), DI
	MOVQ keys_base+24(FP), SI
	MOVQ keys_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ k+88(FP), BX

	MOVQ         seed+72(FP), AX
	VPBROADCASTQ AX, SEED
	MOVQ         numBlocks+80(FP), AX
	VPBROADCASTQ AX, NB
	MOVQ         $0x9E3779B97F4A7C15, AX
	VPBROADCASTQ AX, C0
	INCQ         AX
	VPBROADCASTQ AX, C0P1
	INCQ         AX
	VPBROADCASTQ AX, C0P2
	MOVQ         $0xBF58476D1CE4E5B9, AX
	VPBROADCASTQ AX, C1
	MOVQ         $0x94D049BB133111EB, AX
	VPBROADCASTQ AX, C2
	MOVQ         $1, AX
	VPBROADCASTQ AX, ONE
	MOVQ         $7, AX
	VPBROADCASTQ AX, SEVEN
	MOVQ         $63, AX
	VPBROADCASTQ AX, LOW6
	MOVQ         $0x0101010101010101, R9

	// R8 = 64-byte-aligned scratch.
	LEAQ 63(SP), R8
	ANDQ $~63, R8

chunk:
	// R10 = this chunk's length in keys: min(CX, 256), a multiple of 8.
	MOVQ   $256, R10
	CMPQ   CX, R10
	CMOVQLT CX, R10
	TESTQ  R10, R10
	JZ     done

	// Hash pass: base, g1, g2 and probe 0 for every key of the chunk.
	XORQ R11, R11
hash:
	VMOVDQU64 (SI)(R11*8), Z0
	VPXORQ    SEED, Z0, Z0
	VPADDQ    C0, Z0, Z0
	MIX64_TAIL(Z0, Z1)       // Z0 = h = MixSeed(key, seed)

	// Reduce(h, numBlocks) = (hi32(h)*nb + (lo32(h)*nb >> 32)) >> 32,
	// exact for nb < 2^32; times blockWords is the block's base word.
	VPMULUDQ NB, Z0, Z1
	VPSRLQ   $32, Z1, Z1
	VPSRLQ   $32, Z0, Z2
	VPMULUDQ NB, Z2, Z2
	VPADDQ   Z1, Z2, Z2
	VPSRLQ   $32, Z2, Z2
	VPSLLQ   $3, Z2, Z2      // Z2 = base

	VPADDQ C0P1, Z0, Z3
	MIX64_TAIL(Z3, Z1)       // Z3 = g1
	VPADDQ C0P2, Z0, Z4
	MIX64_TAIL(Z4, Z1)       // Z4 = g2

	PROBE_WORD(Z3, 6, 0, Z2, Z6) // Z6 = probe 0: the key's one cache miss

	VMOVDQA64 Z2, BASES(R8)(R11*8)
	VMOVDQA64 Z3, G1S(R8)(R11*8)
	VMOVDQA64 Z4, G2S(R8)(R11*8)
	VMOVDQA64 Z6, ACCS(R8)(R11*8)
	ADDQ      $8, R11
	CMPQ      R11, R10
	JLT       hash

	// Resolve pass: probes 1..k-1 out of the cache lines probe 0 warmed,
	// then eight answers at once.
	XORQ R11, R11
resolve:
	VMOVDQA64 BASES(R8)(R11*8), Z2
	VMOVDQA64 G1S(R8)(R11*8), Z3
	VMOVDQA64 ACCS(R8)(R11*8), Z6
	CMPQ      BX, $2
	JB        answer
	PROBE(Z3, 15, 9, Z2, Z6)
	CMPQ      BX, $3
	JB        answer
	PROBE(Z3, 24, 18, Z2, Z6)
	CMPQ      BX, $4
	JB        answer
	PROBE(Z3, 33, 27, Z2, Z6)
	CMPQ      BX, $5
	JB        answer
	PROBE(Z3, 42, 36, Z2, Z6)
	CMPQ      BX, $6
	JB        answer
	PROBE(Z3, 51, 45, Z2, Z6)
	CMPQ      BX, $7
	JB        answer
	PROBE(Z3, 60, 54, Z2, Z6)
	CMPQ      BX, $8
	JB        answer
	VMOVDQA64 G2S(R8)(R11*8), Z4
	PROBE(Z4, 6, 0, Z2, Z6)

answer:
	VPTESTMQ ONE, Z6, K2
	KMOVB    K2, AX
	PDEPQ    R9, AX, AX      // bit i -> byte i: eight bools
	MOVQ     AX, (DX)(R11*1)
	ADDQ     $8, R11
	CMPQ     R11, R10
	JLT      resolve

	LEAQ (SI)(R10*8), SI
	ADDQ R10, DX
	SUBQ R10, CX
	JMP  chunk

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
