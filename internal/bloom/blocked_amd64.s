#include "textflag.h"

// The AVX-512 kernels of Blocked: ContainsBatch and the insert/fill
// stripe pass. blocked_amd64.go has the dispatch and the invariants they
// rely on. Both hash eight keys per ZMM register with one routine,
// HASH8, and work through each 256-key chunk in passes: contains hashes
// then resolves; insert hashes and keeps its stripe's keys, warms their
// blocks, then sets them.

// Hash constants, set once per call by HASH_CONSTS.
#define SEED Z31    // seed * mixSeedMul
#define C0 Z30      // Mix64's additive constant
#define C1 Z29      // Mix64's first multiplier
#define C2 Z28      // Mix64's second multiplier
#define NB Z27      // numBlocks (< 2^32)
#define C0P1 Z25    // C0 + 1: Mix64(h+1) starts at h + C0P1
#define C0P2 Z24    // C0 + 2

// ContainsBatch's other constants.
#define ONE Z26     // 1, the bit VPTESTMQ reads
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

// HASH_CONSTS loads the hash constants from seed and numBlocks in AX
// and BX; AX is clobbered.
#define HASH_CONSTS \
	VPBROADCASTQ AX, SEED;                \
	VPBROADCASTQ BX, NB;                  \
	MOVQ         $0x9E3779B97F4A7C15, AX; \
	VPBROADCASTQ AX, C0;                  \
	INCQ         AX;                      \
	VPBROADCASTQ AX, C0P1;                \
	INCQ         AX;                      \
	VPBROADCASTQ AX, C0P2;                \
	MOVQ         $0xBF58476D1CE4E5B9, AX; \
	VPBROADCASTQ AX, C1;                  \
	MOVQ         $0x94D049BB133111EB, AX; \
	VPBROADCASTQ AX, C2

// HASH8 is Blocked.hashState for the eight keys in Z0: h =
// MixSeed(key, seed) in Z0; the block's base word index, Reduce(h,
// numBlocks)*blockWords, in Z2; g1 = Mix64(h+1) and g2 = Mix64(h+2) in
// Z3 and Z4. Z1 is clobbered. Reduce is computed as (hi32(h)*nb +
// (lo32(h)*nb >> 32)) >> 32, which is exact for nb < 2^32.
#define HASH8 \
	VPXORQ   SEED, Z0, Z0; \
	VPADDQ   C0, Z0, Z0;   \
	MIX64_TAIL(Z0, Z1);    \
	VPMULUDQ NB, Z0, Z1;   \
	VPSRLQ   $32, Z1, Z1;  \
	VPSRLQ   $32, Z0, Z2;  \
	VPMULUDQ NB, Z2, Z2;   \
	VPADDQ   Z1, Z2, Z2;   \
	VPSRLQ   $32, Z2, Z2;  \
	VPSLLQ   $3, Z2, Z2;   \
	VPADDQ   C0P1, Z0, Z3; \
	MIX64_TAIL(Z3, Z1);    \
	VPADDQ   C0P2, Z0, Z4; \
	MIX64_TAIL(Z4, Z1)

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
	MOVQ seed+72(FP), AX
	MOVQ numBlocks+80(FP), BX
	HASH_CONSTS
	MOVQ k+88(FP), BX

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
	HASH8

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

// insertStripeAVX512's constants besides ONE; the two kernels never
// run at once, so LO and SPAN reuse ContainsBatch's SEVEN and LOW6.
#define LO Z23      // lo * blockWords: the stripe's first base word
#define SPAN Z22    // (hi - lo) * blockWords
#define SHIFTS Z21  // probe i's shift in its probe word: 9i, and 0 for g2
#define LANEOFF Z20 // -64 * lane: word j's first bit, negated
#define POSMASK Z19 // 511: a bit position within the block
#define PAD Z18     // 1<<12 in lanes i >= k: no word holds such a probe

DATA probeShifts<>+0(SB)/8, $0
DATA probeShifts<>+8(SB)/8, $9
DATA probeShifts<>+16(SB)/8, $18
DATA probeShifts<>+24(SB)/8, $27
DATA probeShifts<>+32(SB)/8, $36
DATA probeShifts<>+40(SB)/8, $45
DATA probeShifts<>+48(SB)/8, $54
DATA probeShifts<>+56(SB)/8, $0
GLOBL probeShifts<>(SB), RODATA|NOPTR, $64

DATA laneOffsets<>+0(SB)/8, $0
DATA laneOffsets<>+8(SB)/8, $-64
DATA laneOffsets<>+16(SB)/8, $-128
DATA laneOffsets<>+24(SB)/8, $-192
DATA laneOffsets<>+32(SB)/8, $-256
DATA laneOffsets<>+40(SB)/8, $-320
DATA laneOffsets<>+48(SB)/8, $-384
DATA laneOffsets<>+56(SB)/8, $-448
GLOBL laneOffsets<>(SB), RODATA|NOPTR, $64

// SET_BIT ORs probe i's bit into the 512-bit mask Z12: lane j shifts 1
// left by pos_i - 64j, which is a bit index only in the word that holds
// the probe; in every other lane it is negative or at least 64, both
// >= 64 unsigned, and VPSLLVQ leaves 0. Clobbers Z11.
#define SET_BIT(i) \
	VPADDQ.BCST (POS+8*i)(R8), LANEOFF, Z11; \
	VPSLLVQ     Z11, ONE, Z11;               \
	VPORQ       Z11, Z12, Z12

// Scratch layout: three 256-word arrays and one 8-word row, 64-byte
// aligned; BASES, G1S and G2S as in containsBatchAVX512.
#define POS 6144

// func insertStripeAVX512(words []uint64, keys []uint64, seed, numBlocks, lo, span uint64, k uint)
TEXT ·insertStripeAVX512(SB), 0, $6272-88
	MOVQ words_base+0(FP), DI
	MOVQ keys_base+24(FP), SI
	MOVQ keys_len+32(FP), CX
	MOVQ seed+48(FP), AX
	MOVQ numBlocks+56(FP), BX
	HASH_CONSTS

	MOVQ         lo+64(FP), AX
	SHLQ         $3, AX
	VPBROADCASTQ AX, LO
	MOVQ         span+72(FP), AX
	SHLQ         $3, AX
	VPBROADCASTQ AX, SPAN
	MOVQ         $1, AX
	VPBROADCASTQ AX, ONE
	MOVQ         $511, AX
	VPBROADCASTQ AX, POSMASK
	VMOVDQU64    probeShifts<>(SB), SHIFTS
	VMOVDQU64    laneOffsets<>(SB), LANEOFF

	// PAD = 1<<12 in lanes k..7, 0 below: a padded position minus at
	// most 448 is still >= 64, so SET_BIT sets nothing for it.
	MOVQ         k+80(FP), BX
	MOVQ         $-1, AX
	SHLXQ        BX, AX, AX
	KMOVB        AX, K4
	VPXORQ       PAD, PAD, PAD
	MOVQ         $4096, AX
	VPBROADCASTQ AX, K4, PAD

	// K3 selects lane 7, the one probe cut from g2.
	MOVQ  $0x80, AX
	KMOVB AX, K3

	// R8 = 64-byte-aligned scratch.
	LEAQ 63(SP), R8
	ANDQ $~63, R8

chunk:
	// R10 = this chunk's length in keys: min(CX, 256), a multiple of 8.
	MOVQ    $256, R10
	CMPQ    CX, R10
	CMOVQLT CX, R10
	TESTQ   R10, R10
	JZ      done

	// Hash pass: base, g1 and g2 of the stripe's keys, packed to the
	// front of the scratch arrays; R12 counts them. A key is kept when
	// base - lo*8 < span*8, unsigned: lo <= block < hi. Each packed
	// store writes eight words at R12 <= R11 <= 248, so it stays inside
	// its array; the words past the kept count are never read.
	XORQ R11, R11
	XORQ R12, R12
hash:
	VMOVDQU64 (SI)(R11*8), Z0
	HASH8
	VPSUBQ      LO, Z2, Z5
	VPCMPUQ     $1, SPAN, Z5, K2
	VPCOMPRESSQ Z2, K2, Z5
	VPCOMPRESSQ Z3, K2, Z6
	VPCOMPRESSQ Z4, K2, Z7
	VMOVDQU64   Z5, BASES(R8)(R12*8)
	VMOVDQU64   Z6, G1S(R8)(R12*8)
	VMOVDQU64   Z7, G2S(R8)(R12*8)
	KMOVB       K2, AX
	POPCNTL     AX, AX
	ADDQ        AX, R12
	ADDQ        $8, R11
	CMPQ        R11, R10
	JLT         hash

	TESTQ R12, R12
	JZ    next

	// Warm pass: start every kept key's cache miss before any is set.
	XORQ R11, R11
warm:
	MOVQ       BASES(R8)(R11*8), AX
	PREFETCHT0 (DI)(AX*8)
	INCQ       R11
	CMPQ       R11, R12
	JLT        warm

	// Set pass, one key at a time so two keys of one block both land:
	// lane i of Z10 is probe i's position in the block (probePos), or
	// padded out for i >= k; SET_BIT turns each into its bit of the
	// 512-bit mask Z12, and one 64-byte OR sets them all.
	XORQ R11, R11
set:
	VPBROADCASTQ G1S(R8)(R11*8), Z10
	VPBROADCASTQ G2S(R8)(R11*8), K3, Z10
	VPSRLVQ      SHIFTS, Z10, Z10
	VPTERNLOGQ   $0xEA, PAD, POSMASK, Z10 // (Z10 & POSMASK) | PAD
	VMOVDQA64    Z10, POS(R8)
	VPADDQ.BCST  POS(R8), LANEOFF, Z11
	VPSLLVQ      Z11, ONE, Z12
	SET_BIT(1)
	SET_BIT(2)
	SET_BIT(3)
	SET_BIT(4)
	SET_BIT(5)
	SET_BIT(6)
	SET_BIT(7)
	MOVQ         BASES(R8)(R11*8), AX
	VPORQ        (DI)(AX*8), Z12, Z12
	VMOVDQU64    Z12, (DI)(AX*8)
	INCQ         R11
	CMPQ         R11, R12
	JLT          set

next:
	LEAQ (SI)(R10*8), SI
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
