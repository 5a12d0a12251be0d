//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 routines behind the wrappers in vec.go, under the kernel rules of
// the package doc (doc.go). What every routine here also keeps:
//
//   - the AXPY forms skip a[x] == ±0 (NaN is not skipped) exactly like the
//     Go loops' av != 0 test; the dot forms skip nothing;
//   - compares are ordered-quiet predicates feeding blends, so NaN and −0
//     take the Go branches;
//   - a lane that has no element (a row tail, a tap outside the image) is
//     masked out of every read and write, so no access leaves the slices;
//   - every routine opens with PCALIGN $64 (doc.go, "Layout");
//   - every routine ends in VZEROUPPER.
//
// The wrappers validate every length before taking a pointer; nothing here
// re-checks, and every dimension ≥ 1 is a precondition.

// vecMask is the lane-mask table of the column/row tails: eight all-ones
// lanes, eight zero lanes, eight all-ones lanes. The mask of the FIRST r
// lanes starts at lane 8-r, the mask of the LAST r lanes at lane 8+r.
DATA vecMask<>+0(SB)/8, $0xffffffffffffffff
DATA vecMask<>+8(SB)/8, $0xffffffffffffffff
DATA vecMask<>+16(SB)/8, $0xffffffffffffffff
DATA vecMask<>+24(SB)/8, $0xffffffffffffffff
DATA vecMask<>+32(SB)/8, $0
DATA vecMask<>+40(SB)/8, $0
DATA vecMask<>+48(SB)/8, $0
DATA vecMask<>+56(SB)/8, $0
DATA vecMask<>+64(SB)/8, $0xffffffffffffffff
DATA vecMask<>+72(SB)/8, $0xffffffffffffffff
DATA vecMask<>+80(SB)/8, $0xffffffffffffffff
DATA vecMask<>+88(SB)/8, $0xffffffffffffffff
GLOBL vecMask<>(SB), RODATA|NOPTR, $96

// The hard-sigmoid constants 3, 6, 1 as float32 bits.
DATA hsConst<>+0(SB)/4, $0x40400000
DATA hsConst<>+4(SB)/4, $0x40c00000
DATA hsConst<>+8(SB)/4, $0x3f800000
GLOBL hsConst<>(SB), RODATA|NOPTR, $12

// HSCONST loads 3, 6, 1, 0 into Y12–Y15.
#define HSCONST \
	VBROADCASTSS hsConst<>+0(SB), Y12; \
	VBROADCASTSS hsConst<>+4(SB), Y13; \
	VBROADCASTSS hsConst<>+8(SB), Y14; \
	VXORPS Y15, Y15, Y15

// HARDSIG leaves hardSigmoid(v) in s: s = (v+3)/6; s < 0 → +0; s > 1 → 1.
// The clamps are VMAXPS with +0 and VMINPS with 1 as the FIRST source: each
// returns its second source, s, when either is NaN and when the two are
// equal, so NaN, −0 and 1 pass through as the Go loop's ordered compares
// leave them. three and six may be memory operands; zero and one are
// registers.
#define HARDSIG(v, s, three, six, zero, one) \
	VADDPS three, v, s; \
	VDIVPS six, s, s; \
	VMAXPS s, zero, s; \
	VMINPS s, one, s

// HSWISH turns v into v·hardSigmoid(v), clobbering s; the constants are
// HSCONST's.
#define HSWISH(v, s) \
	HARDSIG(v, s, Y12, Y13, Y15, Y14); \
	VMULPS s, v, v

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	PCALIGN $64
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	PCALIGN $64
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func gemm(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int, bias *float32, acc bool, act Act)
//
// c[i·ldc + j] = act(init + Σ_x a[i·ars + x·acs] · b[x·ldb + j] + bias[i])
//
// for i < m, j < n, x < k ascending; init is +0, or c's own element when acc.
// One output row at a time; within a row, 32 columns live in Y0–Y3 across
// the whole k extent, then 8-column blocks, then a masked tail of < 8.
// Terms with a == ±0 are skipped. A block starts from the masked load of c
// through Y11 — every lane when acc, none otherwise, which loads +0 and
// touches no memory — takes its terms, then finishes in registers and is
// stored once. The finish is biasAct's instructions in biasAct's operand
// order: sum + bias[i] (when there is a bias), then hard-swish as
// v·hardSigmoid(v); ReLU is VMAXPS with +0 as the second source, which
// returns +0 for NaN, −0 and every v ≤ 0, exactly Go's v > 0 test.
//
// Register plan: DI c (row), SI a (row), R10 / R11 a's and b's step per x
// (bytes), DX b, R13 rows left, AX column offset (bytes), BX columns left,
// R8 / R9 the a and b cursors, CX x left, R12 scratch; Y4 the broadcast a,
// Y5–Y8 products (and the finish's scratch), Y9 the tail mask, Y10 the row's
// bias, Y11 the acc mask, Y12–Y15 = 3, 6, 1, +0; bp the bias cursor, 0 when
// there is no bias.
TEXT ·gemm(SB), NOSPLIT, $8-90
	PCALIGN $64
	MOVQ c+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ acs+32(FP), R10
	SHLQ $2, R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11
	MOVQ m+56(FP), R13
	MOVQ bias+80(FP), R12
	MOVQ R12, bp-8(SP)
	HSCONST
	VXORPS Y11, Y11, Y11
	CMPB acc+88(FP), $0
	JEQ  gemmRow
	VPCMPEQD Y11, Y11, Y11

gemmRow:
	MOVQ bp-8(SP), R12
	TESTQ R12, R12
	JZ   gemmCols
	VBROADCASTSS (R12), Y10
	ADDQ $4, bp-8(SP)

gemmCols:
	XORQ AX, AX             // column offset, bytes
	MOVQ n+64(FP), BX       // columns left

gemmBlk32:
	CMPQ BX, $32
	JLT  gemmBlk8
	VMASKMOVPS (DI)(AX*1), Y11, Y0
	VMASKMOVPS 32(DI)(AX*1), Y11, Y1
	VMASKMOVPS 64(DI)(AX*1), Y11, Y2
	VMASKMOVPS 96(DI)(AX*1), Y11, Y3
	MOVQ SI, R8
	LEAQ (DX)(AX*1), R9
	MOVQ k+72(FP), CX

gemmK32:
	MOVL (R8), R12
	SHLL $1, R12            // drops the sign: ZF ⇔ a == ±0
	JZ   gemmSkip32
	VBROADCASTSS (R8), Y4
	VMULPS (R9), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(R9), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(R9), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(R9), Y4, Y8
	VADDPS Y8, Y3, Y3

gemmSkip32:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ CX
	JNZ  gemmK32
	CMPQ bp-8(SP), $0
	JEQ  gemmAct32
	VADDPS Y10, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y10, Y2, Y2
	VADDPS Y10, Y3, Y3

gemmAct32:
	CMPB act+89(FP), $1
	JB   gemmStore32        // identity
	JA   gemmHswish32
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1
	VMAXPS Y15, Y2, Y2
	VMAXPS Y15, Y3, Y3
	JMP  gemmStore32

gemmHswish32:
	HSWISH(Y0, Y5)
	HSWISH(Y1, Y5)
	HSWISH(Y2, Y5)
	HSWISH(Y3, Y5)

gemmStore32:
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $32, BX
	JMP  gemmBlk32

gemmBlk8:
	CMPQ BX, $8
	JLT  gemmTail
	VMASKMOVPS (DI)(AX*1), Y11, Y0
	MOVQ SI, R8
	LEAQ (DX)(AX*1), R9
	MOVQ k+72(FP), CX

gemmK8:
	MOVL (R8), R12
	SHLL $1, R12
	JZ   gemmSkip8
	VBROADCASTSS (R8), Y4
	VMULPS (R9), Y4, Y5
	VADDPS Y5, Y0, Y0

gemmSkip8:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ CX
	JNZ  gemmK8
	JMP  gemmFinish1

gemmTail:
	TESTQ BX, BX
	JZ    gemmNextRow
	LEAQ  vecMask<>(SB), R12
	NEGQ  BX                // < 0 from here on: the finish stores through Y9
	VMOVDQU 32(R12)(BX*4), Y9   // first -BX lanes
	VANDPS Y11, Y9, Y6
	VMASKMOVPS (DI)(AX*1), Y6, Y0
	MOVQ SI, R8
	LEAQ (DX)(AX*1), R9
	MOVQ k+72(FP), CX

gemmKTail:
	MOVL (R8), R12
	SHLL $1, R12
	JZ   gemmSkipTail
	VBROADCASTSS (R8), Y4
	VMASKMOVPS (R9), Y9, Y5
	VMULPS Y5, Y4, Y5
	VADDPS Y5, Y0, Y0

gemmSkipTail:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ CX
	JNZ  gemmKTail

gemmFinish1:                // one block in Y0: an 8-column block or the tail
	CMPQ bp-8(SP), $0
	JEQ  gemmAct1
	VADDPS Y10, Y0, Y0

gemmAct1:
	CMPB act+89(FP), $1
	JB   gemmStore1
	JA   gemmHswish1
	VMAXPS Y15, Y0, Y0
	JMP  gemmStore1

gemmHswish1:
	HSWISH(Y0, Y5)

gemmStore1:
	CMPQ BX, $8
	JLT  gemmStoreTail
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  gemmBlk8

gemmStoreTail:
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

gemmNextRow:
	MOVQ ldc+8(FP), R12
	LEAQ (DI)(R12*4), DI
	MOVQ ars+24(FP), R12
	LEAQ (SI)(R12*4), SI
	DECQ R13
	JNZ  gemmRow
	VZEROUPPER
	RET

// The dot form. out[i·n + j] (+)= Σ_x a[i·k + x] · b[j·k + x] has its
// reduction along BOTH operands' contiguous axis, so lanes go across eight
// output columns j (eight rows of b): a 4-wide slab of those rows is
// transposed in registers (two 128-bit halves per YMM — rows j..j+3 low,
// j+4..j+7 high — then UNPCK{L,H}PS/PD) into one vector per x, and each of
// up to four a rows keeps its own accumulator from +0 in ascending x. No
// term is skipped. The finished sums take the single += / = into out. A
// last partial block of n%8 columns recomputes the last eight columns and
// stores only the new lanes, so no load ever leaves b.
//
// Register plan: SI a (row group), DX / R8 rows j..j+3 / j+4..j+7 of b,
// R9 = 4k (row step, bytes), R10 = 12k, DI out (row group, column j),
// R12 = 4n, R11 bytes advanced along x, CX x left, R13 rows left, AX j,
// BX store mask.

// DOTLOAD fills Y0–Y3 with b[j+r][x..x+3] | b[j+4+r][x..x+3].
#define DOTLOAD \
	VMOVUPS (DX), X0; \
	VINSERTF128 $1, (R8), Y0, Y0; \
	VMOVUPS (DX)(R9*1), X1; \
	VINSERTF128 $1, (R8)(R9*1), Y1, Y1; \
	VMOVUPS (DX)(R9*2), X2; \
	VINSERTF128 $1, (R8)(R9*2), Y2, Y2; \
	VMOVUPS (DX)(R10*1), X3; \
	VINSERTF128 $1, (R8)(R10*1), Y3, Y3

// DOTLOADMASK is DOTLOAD for the last k%4 x, through the lane mask in X10
// (masked-off lanes read as zero and never touch memory).
#define DOTLOADMASK \
	VMASKMOVPS (DX), X10, X0; \
	VMASKMOVPS (R8), X10, X8; \
	VINSERTF128 $1, X8, Y0, Y0; \
	VMASKMOVPS (DX)(R9*1), X10, X1; \
	VMASKMOVPS (R8)(R9*1), X10, X8; \
	VINSERTF128 $1, X8, Y1, Y1; \
	VMASKMOVPS (DX)(R9*2), X10, X2; \
	VMASKMOVPS (R8)(R9*2), X10, X8; \
	VINSERTF128 $1, X8, Y2, Y2; \
	VMASKMOVPS (DX)(R10*1), X10, X3; \
	VMASKMOVPS (R8)(R10*1), X10, X8; \
	VINSERTF128 $1, X8, Y3, Y3

// DOTTRANSPOSE turns rows Y0–Y3 into columns Y4–Y7 (x, x+1, x+2, x+3), each
// holding that x for the eight b rows in lane order.
#define DOTTRANSPOSE \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y0; \
	VUNPCKHPS Y3, Y2, Y1; \
	VUNPCKLPD Y0, Y8, Y4; \
	VUNPCKHPD Y0, Y8, Y5; \
	VUNPCKLPD Y1, Y9, Y6; \
	VUNPCKHPD Y1, Y9, Y7

// DOTCOL4 adds column col (x offset off bytes) into the four row sums.
#define DOTCOL4(off, col) \
	VBROADCASTSS off(SI), Y0; \
	VMULPS col, Y0, Y0; \
	VADDPS Y0, Y12, Y12; \
	VBROADCASTSS off(SI)(R9*1), Y1; \
	VMULPS col, Y1, Y1; \
	VADDPS Y1, Y13, Y13; \
	VBROADCASTSS off(SI)(R9*2), Y2; \
	VMULPS col, Y2, Y2; \
	VADDPS Y2, Y14, Y14; \
	VBROADCASTSS off(SI)(R10*1), Y3; \
	VMULPS col, Y3, Y3; \
	VADDPS Y3, Y15, Y15

// DOTCOL1 is DOTCOL4 for a single a row.
#define DOTCOL1(off, col) \
	VBROADCASTSS off(SI), Y0; \
	VMULPS col, Y0, Y0; \
	VADDPS Y0, Y12, Y12

// DOTSTEP moves every x cursor one slab on.
#define DOTSTEP \
	ADDQ $16, SI; \
	ADDQ $16, DX; \
	ADDQ $16, R8; \
	ADDQ $16, R11; \
	SUBQ $4, CX

// DOTSTORE folds one finished sum into the out row at ptr under mask Y11.
#define DOTSTORE(ptr, sum) \
	VMASKMOVPS ptr, Y11, Y0; \
	VADDPS sum, Y0, Y0; \
	VMASKMOVPS Y0, Y11, ptr

// func dotTransB(out, a, b *float32, m, k, n int, acc bool)
//
// Requires n ≥ 8 (the Go wrapper runs narrower outputs on the Go loop).
TEXT ·dotTransB(SB), NOSPLIT, $0-49
	PCALIGN $64
	MOVQ k+32(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	MOVQ n+40(FP), R12
	SHLQ $2, R12
	XORQ AX, AX

dotBlock:
	MOVQ n+40(FP), R13
	SUBQ AX, R13                // columns left
	JLE  dotDone
	LEAQ vecMask<>(SB), BX      // lanes 0–7 of the table: the full mask
	CMPQ R13, $8
	JGE  dotBlockGo
	LEAQ 32(BX)(R13*4), BX      // last R13 lanes only …
	MOVQ n+40(FP), AX
	SUBQ $8, AX                 // … of the last eight columns

dotBlockGo:
	VMOVDQU (BX), Y11
	MOVQ AX, DX
	IMULQ R9, DX
	ADDQ b+16(FP), DX
	LEAQ (DX)(R9*4), R8
	MOVQ a+8(FP), SI
	MOVQ out+0(FP), DI
	LEAQ (DI)(AX*4), DI
	MOVQ m+24(FP), R13

dotRows4:
	CMPQ R13, $4
	JLT  dotRows1
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	XORQ R11, R11
	MOVQ k+32(FP), CX

dotX4:
	CMPQ CX, $4
	JLT  dotX4Tail
	DOTLOAD
	DOTTRANSPOSE
	DOTCOL4(0, Y4)
	DOTCOL4(4, Y5)
	DOTCOL4(8, Y6)
	DOTCOL4(12, Y7)
	DOTSTEP
	JMP  dotX4

dotX4Tail:
	TESTQ CX, CX
	JZ    dotStore4
	LEAQ  vecMask<>(SB), BX
	NEGQ  CX
	VMOVDQU 32(BX)(CX*4), X10   // first -CX of four lanes
	NEGQ  CX
	DOTLOADMASK
	DOTTRANSPOSE
	DOTCOL4(0, Y4)
	CMPQ CX, $2
	JLT  dotStore4
	DOTCOL4(4, Y5)
	CMPQ CX, $3
	JLT  dotStore4
	DOTCOL4(8, Y6)

dotStore4:
	CMPB acc+48(FP), $0
	JNE  dotAcc4
	VMASKMOVPS Y12, Y11, (DI)
	VMASKMOVPS Y13, Y11, (DI)(R12*1)
	VMASKMOVPS Y14, Y11, (DI)(R12*2)
	LEAQ (DI)(R12*2), BX
	VMASKMOVPS Y15, Y11, (BX)(R12*1)
	JMP  dotNext4

dotAcc4:
	DOTSTORE((DI), Y12)
	DOTSTORE((DI)(R12*1), Y13)
	DOTSTORE((DI)(R12*2), Y14)
	LEAQ (DI)(R12*2), BX
	DOTSTORE((BX)(R12*1), Y15)

dotNext4:
	SUBQ R11, SI
	SUBQ R11, DX
	SUBQ R11, R8
	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R12*4), DI
	SUBQ $4, R13
	JMP  dotRows4

dotRows1:
	TESTQ R13, R13
	JZ    dotNextBlock
	VXORPS Y12, Y12, Y12
	XORQ R11, R11
	MOVQ k+32(FP), CX

dotX1:
	CMPQ CX, $4
	JLT  dotX1Tail
	DOTLOAD
	DOTTRANSPOSE
	DOTCOL1(0, Y4)
	DOTCOL1(4, Y5)
	DOTCOL1(8, Y6)
	DOTCOL1(12, Y7)
	DOTSTEP
	JMP  dotX1

dotX1Tail:
	TESTQ CX, CX
	JZ    dotStore1
	LEAQ  vecMask<>(SB), BX
	NEGQ  CX
	VMOVDQU 32(BX)(CX*4), X10
	NEGQ  CX
	DOTLOADMASK
	DOTTRANSPOSE
	DOTCOL1(0, Y4)
	CMPQ CX, $2
	JLT  dotStore1
	DOTCOL1(4, Y5)
	CMPQ CX, $3
	JLT  dotStore1
	DOTCOL1(8, Y6)

dotStore1:
	CMPB acc+48(FP), $0
	JNE  dotAcc1
	VMASKMOVPS Y12, Y11, (DI)
	JMP  dotNext1

dotAcc1:
	DOTSTORE((DI), Y12)

dotNext1:
	SUBQ R11, SI
	SUBQ R11, DX
	SUBQ R11, R8
	ADDQ R9, SI
	ADDQ R12, DI
	DECQ R13
	JMP  dotRows1

dotNextBlock:
	ADDQ $8, AX
	JMP  dotBlock

dotDone:
	VZEROUPPER
	RET

// func gather2(dst *float32, dstStride int, src *float32, srcStride int, rows, n int)
//
// dst[r·dstStride + j] = src[r·srcStride + 2j]   (r < rows, j < n)
//
// The stride-2 im2col row walk: it touches every second element of the wide
// side. Every element is its own target, so the lanes are eight consecutive
// j; what is new is the de-interleave. Fifteen wide elements cover eight j,
// and they are read as elements 0–7 and 7–14 — never a sixteenth, which the
// slice need not have. A last block of n%8 j goes through lane masks, so
// nothing is read or written past element 2(n−1).
//
// Register plan: DI/R8 dst and its row step, SI/R9 src and its row step, R13
// rows, R10 = n, and for a tail of r = n%8: Y9 the first r lanes (the narrow
// side), Y10 the first min(8, 2r−1) lanes and Y11 the first max(0, 2r−8)
// lanes (the wide side's two reads).
TEXT ·gather2(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	SHLQ $2, R9
	MOVQ rows+32(FP), R13
	MOVQ n+40(FP), R10
	MOVQ R10, R11
	ANDQ $7, R11
	LEAQ vecMask<>(SB), R12
	MOVQ R11, BX
	NEGQ BX
	VMOVDQU 32(R12)(BX*4), Y9
	LEAQ -1(R11)(R11*1), BX
	MOVQ $8, CX
	CMPQ BX, CX
	CMOVQGT CX, BX
	MOVQ $0, CX
	CMPQ BX, CX
	CMOVQLT CX, BX
	NEGQ BX
	VMOVDQU 32(R12)(BX*4), Y10
	LEAQ -8(R11)(R11*1), BX
	CMPQ BX, CX
	CMOVQLT CX, BX
	NEGQ BX
	VMOVDQU 32(R12)(BX*4), Y11

g2Row:
	XORQ AX, AX             // dst offset, bytes; src is at twice that
	MOVQ R10, BX

g2Blk:
	CMPQ BX, $8
	JLT  g2Tail
	VMOVUPS (SI)(AX*2), Y0
	VMOVUPS 28(SI)(AX*2), Y1
	VSHUFPS $0xD8, Y1, Y0, Y0   // e0 e2 e8 e10 | e4 e6 e12 e14
	VPERMPD $0xD8, Y0, Y0       // e0 e2 e4 e6 e8 e10 e12 e14
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  g2Blk

g2Tail:
	TESTQ BX, BX
	JZ    g2Next
	VMASKMOVPS (SI)(AX*2), Y10, Y0
	VMASKMOVPS 28(SI)(AX*2), Y11, Y1
	VSHUFPS $0xD8, Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

g2Next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R13
	JNZ  g2Row
	VZEROUPPER
	RET

// The 3×3 depthwise input gradients of a run of planes, in gather form. Each
// input pixel is one target: it starts from its own value in dimg and takes
// its terms w[t]·dy[oy,ox] one at a time in ascending t — the order the
// tap-outer Go loop reaches it in — one VMULPS and one VADDPS each with the
// first sources a plain build compiles that loop with: dy in the multiply,
// the product in the add, which decide what NaN survives of two. The lanes
// are eight input positions of a row (ix0 .. ix0+7); a plane's nine weights
// stay broadcast in Y0–Y8 while its rows of the column block run beneath
// them, two rows side by side at stride 1.
//
// Skipping. Tap row ky reaches input row iy from output row
// oy = (iy + padH − ky)/strideH when that divides and lands in [0, outH); a
// tap row that does not, and a zero weight, skip by branch (bit t of AX). Tap
// column kx reaches lane l from output column (ix0 + l + padW − kx)/strideW on
// the same terms, so a lane can miss a tap its row takes. Such a lane loads
// dy as +0 (masked out of the read, which therefore never leaves the plane)
// and finds −0 in its weight's lane, so its term is (+0)·(−0) = −0, and
// −0 + s is s for every s but a signalling NaN. A lane that no tap of the
// row reaches is left out of the masked load and store of dimg, so it keeps
// its bits whatever they are.
//
// Stride 2 loads the four dy values of a tap column's lanes (the masks lm0–
// lm2 cut them to the output row) and spreads them over lane pairs with
// VPERMPS; the lanes of the wrong parity are then ANDed to +0.
//
// The geometry is the same in every plane, so it is worked out once: per
// sixteen rows, into rows — for each input row, the taps whose row reaches it
// (bits 0–8) and the byte offsets into a dy plane of tap rows 0–2's output
// rows; per column block, the lanes each tap column reaches (Y12–Y14) and
// cov, which holds, for every set of tap columns, the lanes some column of
// the set reaches. A plane adds its weights and live, the taps whose weight
// is not ±0.
//
// Register plan: Y0–Y8 the nine weights (−0 where the lane misses the tap's
// column), Y9 the sum (Y11 the second row's at stride 1; the stride-2 spread
// at stride 2), Y10 and Y15 scratch and the lanes a row reaches, Y12–Y14 the
// lanes each tap column reaches. AX (BX) the taps that run in the row (the
// second row), DI dimg (plane, row, block), DX its row step at stride 1, SI
// the row's entry in rows, R8–R10 the dy rows of tap rows 0–2 (the second
// row's tap rows 1–2 read R8–R9, its tap row 0 CX), R11–R13 the byte offset
// into a dy row of tap columns 0–2 at lane 0 (stride 2: at its first value).

// vecEven holds the VPERMPS indices [0 0 1 1 2 2 3 3], which spread four
// values over lane pairs.
DATA vecEven<>+0(SB)/8, $0x0000000000000000
DATA vecEven<>+8(SB)/8, $0x0000000100000001
DATA vecEven<>+16(SB)/8, $0x0000000200000002
DATA vecEven<>+24(SB)/8, $0x0000000300000003
GLOBL vecEven<>(SB), RODATA|NOPTR, $32

// GXMASK1 sets m to the lanes whose stride-1 tap column kx lands in
// [0, outW), and off to the byte offset of lane 0's dy value; SI holds
// ix0 + padW, Y9 −1, Y10 outW, Y11 the lanes that exist. Clobbers DX, Y15.
#define GXMASK1(kx, m, off) \
	LEAQ -kx(SI), DX; \
	MOVQ DX, off; \
	SHLQ $2, off; \
	VMOVD DX, X15; \
	VPBROADCASTD X15, Y15; \
	VPADDD dwLanes<>(SB), Y15, Y15; \
	VPCMPGTD Y9, Y15, m; \
	VPCMPGTD Y15, Y10, Y15; \
	VPAND Y15, m, m; \
	VPAND Y11, m, m

// GXMASK2 is GXMASK1 at stride 2: lane l takes tap column kx when
// e = ix0 + l + padW − kx is even and in [0, 2·outW) (Y10), from output
// column e/2. The tap column's first dy value is at (e₀+1)>>1; lm gets the
// lanes of the four values from there that lie inside the row. Y1 holds outW
// and Y2 the first four lanes; clobbers DX, Y0, Y15.
#define GXMASK2(kx, m, off, lm) \
	LEAQ -kx(SI), DX; \
	VMOVD DX, X15; \
	VPBROADCASTD X15, Y15; \
	VPADDD dwLanes<>(SB), Y15, Y15; \
	VPCMPGTD Y9, Y15, m; \
	VPSLLD $31, Y15, Y0; \
	VPSRAD $31, Y0, Y0; \
	VPCMPGTD Y15, Y10, Y15; \
	VPAND Y15, m, m; \
	VPANDN m, Y0, m; \
	VPAND Y11, m, m; \
	INCQ DX; \
	SARQ $1, DX; \
	MOVQ DX, off; \
	SHLQ $2, off; \
	VMOVD DX, X15; \
	VPBROADCASTD X15, Y15; \
	VPADDD dwLanes<>(SB), Y15, Y15; \
	VPCMPGTD Y9, Y15, Y0; \
	VPCMPGTD Y15, Y1, Y15; \
	VPAND Y15, Y0, Y0; \
	VPAND Y2, Y0, Y0; \
	VMOVDQU Y0, lm

// GXWEIGHT broadcasts weight t (w in DX) into r, −0 (Y15) in the lanes
// outside mask m.
#define GXWEIGHT(t, r, m) \
	VBROADCASTSS (t*4)(DX), r; \
	VBLENDVPS m, r, Y15, r

// GXTAP1 adds stride-1 tap bit's term into sum when the tap runs in its row
// (bits): dy at row + off through the tap column's lanes m, times its weight
// w, through scratch t.
#define GXTAP1(bits, bit, row, off, m, w, t, sum) \
	TESTL $bit, bits; \
	JZ    4(PC); \
	VMASKMOVPS (row)(off*1), m, t; \
	VMULPS w, t, t; \
	VADDPS sum, t, sum

// GXTAP2 is GXTAP1 at stride 2, for the row in AX, into Y9 through Y10: four
// dy values through lm, spread over lane pairs, the wrong parity cleared by
// m.
#define GXTAP2(bit, row, off, lm, m, w) \
	TESTL $bit, AX; \
	JZ    7(PC); \
	VMOVDQU lm, Y10; \
	VMASKMOVPS (row)(off*1), Y10, Y10; \
	VPERMPS Y10, Y11, Y10; \
	VANDPS m, Y10, Y10; \
	VMULPS w, Y10, Y10; \
	VADDPS Y9, Y10, Y9

// GXROWOFF sets bits in AX and reg to the byte offset into a dy plane of tap
// row ky's output row, when input row SI has one: oy = (SI + padH − ky)/
// strideH must divide and lie in [0, outH). Clobbers CX and DX. (Branches by
// count: a macro cannot hold labels.)
#define GXROWOFF(ky, bits, reg) \
	MOVQ padH-648(SP), DX; \
	ADDQ SI, DX; \
	SUBQ $ky, DX; \
	JS   11(PC); \
	MOVQ shift-656(SP), CX; \
	TESTQ CX, DX; \
	JNZ  8(PC); \
	SHRQ CX, DX; \
	CMPQ DX, outH-664(SP); \
	JGE  5(PC); \
	IMULQ outW-672(SP), DX; \
	SHLQ $2, DX; \
	MOVQ DX, reg; \
	ORL  $bits, AX

// GXCOV sets out to 32 × the set of tap columns among the taps in bits: the
// offset into cov of the lanes they reach. Clobbers tmp.
#define GXCOV(bits, out, tmp) \
	MOVL bits, out; \
	SHRL $3, out; \
	ORL  bits, out; \
	MOVL bits, tmp; \
	SHRL $6, tmp; \
	ORL  tmp, out; \
	ANDL $7, out; \
	SHLL $5, out

// GXROWLOAD reads this row's table entry at SI: the plane's taps that run
// into AX (on to skip when none does), the lanes they reach into Y15, the dy
// rows of the three tap rows into R8–R10, and the row's dimg lanes into Y9.
// Clobbers CX and DX.
#define GXROWLOAD(skip) \
	MOVL 0(SI), AX; \
	ANDL live-688(SP), AX; \
	JZ   skip; \
	GXCOV(AX, CX, DX); \
	VMOVDQU cov-256(SP)(CX*1), Y15; \
	VMASKMOVPS (DI), Y15, Y9; \
	MOVQ dy-680(SP), DX; \
	MOVL 4(SI), R8; \
	ADDQ DX, R8; \
	MOVL 8(SI), R9; \
	ADDQ DX, R9; \
	MOVL 12(SI), R10; \
	ADDQ DX, R10

// func gradX3x3(dimg, dy, w *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int)
TEXT ·gradX3x3(SB), NOSPLIT, $720-96
	PCALIGN $64
	MOVQ padH+80(FP), AX
	MOVQ AX, padH-648(SP)
	MOVQ strideH+64(FP), AX
	DECQ AX
	MOVQ AX, shift-656(SP)      // 0 or 1: strideH = 1 << shift
	MOVQ outH+32(FP), AX
	MOVQ AX, outH-664(SP)
	MOVQ outW+40(FP), AX
	MOVQ AX, outW-672(SP)
	MOVQ $0, iy0-368(SP)

gxChunk:
	MOVQ inH+48(FP), CX
	SUBQ iy0-368(SP), CX        // rows left
	JLE  gxDone
	MOVQ $16, DX
	CMPQ CX, DX
	CMOVQGT DX, CX
	LEAQ rows-632(SP), DI
	SHLQ $4, CX
	ADDQ DI, CX
	MOVQ CX, rowsEnd-640(SP)
	MOVQ iy0-368(SP), SI

gxTable:
	XORL AX, AX
	XORL R8, R8
	XORL R9, R9
	XORL R10, R10
	GXROWOFF(0, 0x007, R8)
	GXROWOFF(1, 0x038, R9)
	GXROWOFF(2, 0x1c0, R10)
	MOVL AX, 0(DI)
	MOVL R8, 4(DI)
	MOVL R9, 8(DI)
	MOVL R10, 12(DI)
	ADDQ $16, DI
	INCQ SI
	CMPQ DI, rowsEnd-640(SP)
	JLT  gxTable
	MOVQ $0, ix0-360(SP)

gxBlock:
	MOVQ inW+56(FP), CX
	SUBQ ix0-360(SP), CX        // columns left
	JLE  gxNextChunk
	MOVQ $8, DX
	CMPQ CX, DX
	CMOVQGT DX, CX
	LEAQ vecMask<>(SB), DX
	NEGQ CX
	VMOVDQU 32(DX)(CX*4), Y11   // the lanes that exist
	VPCMPEQD Y9, Y9, Y9
	MOVQ outW+40(FP), DX
	VMOVD DX, X1
	VPBROADCASTD X1, Y1
	VMOVDQU vecMask<>+16(SB), Y2
	CMPQ strideW+72(FP), $2
	JNE  2(PC)
	SHLQ $1, DX
	VMOVD DX, X10
	VPBROADCASTD X10, Y10
	MOVQ ix0-360(SP), SI
	ADDQ padW+88(FP), SI
	CMPQ strideW+72(FP), $2
	JEQ  gxMasks2
	GXMASK1(0, Y12, R11)
	GXMASK1(1, Y13, R12)
	GXMASK1(2, Y14, R13)
	JMP  gxCover

gxMasks2:
	GXMASK2(0, Y12, R11, lm0-288(SP))
	GXMASK2(1, Y13, R12, lm1-320(SP))
	GXMASK2(2, Y14, R13, lm2-352(SP))

gxCover:
	LEAQ cov-256(SP), DX
	VMOVDQU Y12, 32(DX)
	VMOVDQU Y13, 64(DX)
	VPOR Y12, Y13, Y10
	VMOVDQU Y10, 96(DX)
	VMOVDQU Y14, 128(DX)
	VPOR Y12, Y14, Y10
	VMOVDQU Y10, 160(DX)
	VPOR Y13, Y14, Y10
	VMOVDQU Y10, 192(DX)
	VPOR Y12, Y10, Y10
	VMOVDQU Y10, 224(DX)
	MOVQ $0, plane-696(SP)

gxPlane:
	MOVQ plane-696(SP), AX
	CMPQ AX, planes+24(FP)
	JGE  gxNextBlock
	LEAQ (AX)(AX*8), DX
	SHLQ $2, DX
	ADDQ w+16(FP), DX           // the plane's nine weights
	MOVQ outH+32(FP), CX
	IMULQ outW+40(FP), CX
	IMULQ AX, CX
	SHLQ $2, CX
	ADDQ dy+8(FP), CX
	MOVQ CX, dy-680(SP)         // the plane's dy
	MOVQ inH+48(FP), DI
	IMULQ AX, DI
	ADDQ iy0-368(SP), DI
	IMULQ inW+56(FP), DI
	ADDQ ix0-360(SP), DI
	SHLQ $2, DI
	ADDQ dimg+0(FP), DI         // the plane's dimg, first row of the chunk, at the block
	VXORPS Y10, Y10, Y10        // live taps: weights that are not ±0 (NaN is)
	VMOVUPS (DX), Y15
	VCMPPS $4, Y10, Y15, Y15
	VMOVMSKPS Y15, AX
	VBROADCASTSS 32(DX), Y15
	VCMPPS $4, Y10, Y15, Y15
	VMOVMSKPS Y15, CX
	ANDL $1, CX
	SHLL $8, CX
	ORL  CX, AX
	MOVL AX, live-688(SP)
	VPCMPEQD Y15, Y15, Y15
	VPSLLD $31, Y15, Y15        // −0
	GXWEIGHT(0, Y0, Y12)
	GXWEIGHT(1, Y1, Y13)
	GXWEIGHT(2, Y2, Y14)
	GXWEIGHT(3, Y3, Y12)
	GXWEIGHT(4, Y4, Y13)
	GXWEIGHT(5, Y5, Y14)
	GXWEIGHT(6, Y6, Y12)
	GXWEIGHT(7, Y7, Y13)
	GXWEIGHT(8, Y8, Y14)
	LEAQ rows-632(SP), SI
	CMPQ strideW+72(FP), $2
	JEQ  gxStride2
	MOVQ inW+56(FP), DX
	SHLQ $2, DX                 // dimg's row step

	// Rows two at a time, two sums side by side: tap row ky of row iy+1 reads
	// the dy row that tap row ky−1 of row iy reads.
gxPair1:
	LEAQ 16(SI), CX
	CMPQ CX, rowsEnd-640(SP)
	JGE  gxLast1
	MOVL 0(SI), AX
	ANDL live-688(SP), AX
	MOVL 16(SI), BX
	ANDL live-688(SP), BX
	GXCOV(AX, CX, R8)
	MOVQ CX, covA-704(SP)
	VMOVDQU cov-256(SP)(CX*1), Y10
	VMASKMOVPS (DI), Y10, Y9
	GXCOV(BX, CX, R8)
	MOVQ CX, covB-712(SP)
	VMOVDQU cov-256(SP)(CX*1), Y15
	VMASKMOVPS (DI)(DX*1), Y15, Y11
	MOVQ dy-680(SP), CX
	MOVL 4(SI), R8
	ADDQ CX, R8
	MOVL 8(SI), R9
	ADDQ CX, R9
	MOVL 12(SI), R10
	ADDQ CX, R10
	MOVL 20(SI), CX
	ADDQ dy-680(SP), CX
	GXTAP1(AX, 0x001, R8, R11, Y12, Y0, Y10, Y9)
	GXTAP1(BX, 0x001, CX, R11, Y12, Y0, Y15, Y11)
	GXTAP1(AX, 0x002, R8, R12, Y13, Y1, Y10, Y9)
	GXTAP1(BX, 0x002, CX, R12, Y13, Y1, Y15, Y11)
	GXTAP1(AX, 0x004, R8, R13, Y14, Y2, Y10, Y9)
	GXTAP1(BX, 0x004, CX, R13, Y14, Y2, Y15, Y11)
	GXTAP1(AX, 0x008, R9, R11, Y12, Y3, Y10, Y9)
	GXTAP1(BX, 0x008, R8, R11, Y12, Y3, Y15, Y11)
	GXTAP1(AX, 0x010, R9, R12, Y13, Y4, Y10, Y9)
	GXTAP1(BX, 0x010, R8, R12, Y13, Y4, Y15, Y11)
	GXTAP1(AX, 0x020, R9, R13, Y14, Y5, Y10, Y9)
	GXTAP1(BX, 0x020, R8, R13, Y14, Y5, Y15, Y11)
	GXTAP1(AX, 0x040, R10, R11, Y12, Y6, Y10, Y9)
	GXTAP1(BX, 0x040, R9, R11, Y12, Y6, Y15, Y11)
	GXTAP1(AX, 0x080, R10, R12, Y13, Y7, Y10, Y9)
	GXTAP1(BX, 0x080, R9, R12, Y13, Y7, Y15, Y11)
	GXTAP1(AX, 0x100, R10, R13, Y14, Y8, Y10, Y9)
	GXTAP1(BX, 0x100, R9, R13, Y14, Y8, Y15, Y11)
	MOVQ covA-704(SP), CX
	VMOVDQU cov-256(SP)(CX*1), Y10
	VMASKMOVPS Y9, Y10, (DI)
	MOVQ covB-712(SP), CX
	VMOVDQU cov-256(SP)(CX*1), Y15
	VMASKMOVPS Y11, Y15, (DI)(DX*1)
	ADDQ $32, SI
	LEAQ (DI)(DX*2), DI
	JMP  gxPair1

gxLast1:
	CMPQ SI, rowsEnd-640(SP)
	JGE  gxNextPlane
	GXROWLOAD(gxNextPlane)
	GXTAP1(AX, 0x001, R8, R11, Y12, Y0, Y10, Y9)
	GXTAP1(AX, 0x002, R8, R12, Y13, Y1, Y10, Y9)
	GXTAP1(AX, 0x004, R8, R13, Y14, Y2, Y10, Y9)
	GXTAP1(AX, 0x008, R9, R11, Y12, Y3, Y10, Y9)
	GXTAP1(AX, 0x010, R9, R12, Y13, Y4, Y10, Y9)
	GXTAP1(AX, 0x020, R9, R13, Y14, Y5, Y10, Y9)
	GXTAP1(AX, 0x040, R10, R11, Y12, Y6, Y10, Y9)
	GXTAP1(AX, 0x080, R10, R12, Y13, Y7, Y10, Y9)
	GXTAP1(AX, 0x100, R10, R13, Y14, Y8, Y10, Y9)
	VMASKMOVPS Y9, Y15, (DI)
	JMP  gxNextPlane

gxStride2:
	VMOVDQU vecEven<>+0(SB), Y11

gxRow2:
	GXROWLOAD(gxNext2)
	GXTAP2(0x001, R8, R11, lm0-288(SP), Y12, Y0)
	GXTAP2(0x002, R8, R12, lm1-320(SP), Y13, Y1)
	GXTAP2(0x004, R8, R13, lm2-352(SP), Y14, Y2)
	GXTAP2(0x008, R9, R11, lm0-288(SP), Y12, Y3)
	GXTAP2(0x010, R9, R12, lm1-320(SP), Y13, Y4)
	GXTAP2(0x020, R9, R13, lm2-352(SP), Y14, Y5)
	GXTAP2(0x040, R10, R11, lm0-288(SP), Y12, Y6)
	GXTAP2(0x080, R10, R12, lm1-320(SP), Y13, Y7)
	GXTAP2(0x100, R10, R13, lm2-352(SP), Y14, Y8)
	VMASKMOVPS Y9, Y15, (DI)

gxNext2:
	MOVQ inW+56(FP), DX
	LEAQ (DI)(DX*4), DI
	ADDQ $16, SI
	CMPQ SI, rowsEnd-640(SP)
	JLT  gxRow2

gxNextPlane:
	INCQ plane-696(SP)
	JMP  gxPlane

gxNextBlock:
	ADDQ $8, ix0-360(SP)
	JMP  gxBlock

gxNextChunk:
	ADDQ $16, iy0-368(SP)
	JMP  gxChunk

gxDone:
	VZEROUPPER
	RET

// The 3×3 depthwise forward over planes consecutive planes. Each output
// position is one target: a sum from +0 that takes its in-image, non-zero
// taps in ascending (ky, kx) order, one VMULPS and one VADDPS each with the Go
// loop's first sources — the pixel in the multiply, the product in the add,
// which decide what NaN survives of two — then the bias add and the
// activation, and one store. The lanes are eight output positions of a row
// (ox0 .. ox0+7). Tap column kx of lane l reads image column
// ix0 + l·strideW + kx, ix0 = ox0·strideW − padW.
//
// Loop order: column block, then plane, then row. What a column block's
// geometry decides — the column masks, the store mask — is cut once per
// block; a plane then writes its nine weights, broadcast and ANDed with those
// masks, and its broadcast bias into a 32-byte-aligned table in the frame
// (SI), which the multiplies and the bias add read as memory operands. When
// outW ≥ 8 every block is a full eight lanes: a last partial block is
// recomputed as the last eight columns, the same bits stored twice. The
// wrapper hands over the fast range [rowLo, rowHi) and its edge rows (empty
// when outW < 8, or at column stride 1 with a row stride other than 1).
//
// Two row loops. The general one tests every tap: bit t of AX is set when tap
// t runs in this output row (its tap row is inside the image and w[t] ≠ 0,
// NaN included), the branch the same for every lane; it runs every row of a
// plane the fast loop may not take, every row of a narrow output (with a
// masked tail store), and the rows outside the fast range. The fast range
// [rowLo, rowHi) is the interior rows, whose three tap rows lie inside the
// image, and at pad 1 also row 0 (edges bit 0), which misses only its top tap
// row, and at stride 1 the first bottom row when that makes the count even
// (bit 1), which misses only its bottom one. A plane's fast range runs in the
// fast loop when its nine weights are all live, its bias is not −0, and the
// block's check found the reads the fast loop makes without a mask — tap
// column 1 at stride 1, elements 8–15 and 2–9 at stride 2 — inside the image
// in every lane (true of every block at pad ≤ 1). It runs no test, reads the
// act once per plane (once per edge row) and stores all eight lanes. At
// stride 1 it takes two output rows at a time through their four-row window,
// loading each pixel vector once for both sums, each sum still taking its
// own taps in ascending order; the edge pairs leave out the window row that
// lies outside the image. The general loop adds a sum's first term onto +0,
// as the Go loop does; the fast one starts the sum at that term, which
// stores the same bits: the two chains differ only when every term is −0
// (+0 against −0), and adding a bias other than −0 gives both the same value.
//
// A tap column outside the image skips per lane: its pixels come in through
// VMASKMOVPS with that lane masked off (so no read leaves the image and the
// lane loads +0), and the same lane of the weight is ANDed to +0, so the
// lane's product is +0·+0 = +0 — an exact no-op on a sum that began at +0 —
// even where the weight is Inf or NaN.
//
// Stride 2 reads sixteen consecutive pixels per tap row (elements 0–7 and
// 8–15 from the first tap column) and de-interleaves them with VSHUFPS $0x88 /
// $0xDD into the lanes of tap columns 0 and 1; tap column 2 reads elements
// 2–17 the same way. The shuffles work within 128-bit halves, so the sums sit
// in lane order 0 1 4 5 2 3 6 7, which every term, mask and the bias share;
// one VPERMPD $0xD8 restores the order before the store. The masks of the
// reads are cut from the image row's bounds, element by element, and the
// weight masks are their de-interleaves.
//
// Register plan: Y0 the sum (Y1 the second row's at stride 1), Y2–Y4 scratch,
// Y11–Y13 the constants 1, 3, 6 (for HARDSIG), Y15 = +0; stride 1: Y9, Y10,
// Y14 the column masks of tap columns 0–2; stride 2: Y9/Y10/Y7/Y8 the masks of
// elements 0–7/8–15/2–9/10–17, Y5/Y6/Y14 the weight masks of tap columns 0–2.
// SI the weight table (tap t at 32t, the bias at 288), AX the taps that run
// in this row (in the fast loop: the edge pairs still to run), BX the plane's
// live taps, CX fast rows (pairs) left, DI out
// (row, block), R8 the image pixel of tap (0, 0) at lane 0, R9 its step per
// output row (bytes), R10 = 4·outW, R11 = 4·inW, R12 = iy0 (the image row of
// tap row 0), R13 = oy; the row the general loop stops at is in the frame.

// dwLanes holds the int32 lane indices 0 … 7.
DATA dwLanes<>+0(SB)/8, $0x0000000100000000
DATA dwLanes<>+8(SB)/8, $0x0000000300000002
DATA dwLanes<>+16(SB)/8, $0x0000000500000004
DATA dwLanes<>+24(SB)/8, $0x0000000700000006
GLOBL dwLanes<>(SB), RODATA|NOPTR, $32

// hsVec holds the hard-sigmoid constants 3, 6 and 1 in eight lanes each,
// for the routines that have no register to spare for them.
DATA hsVec<>+0(SB)/8, $0x4040000040400000
DATA hsVec<>+8(SB)/8, $0x4040000040400000
DATA hsVec<>+16(SB)/8, $0x4040000040400000
DATA hsVec<>+24(SB)/8, $0x4040000040400000
DATA hsVec<>+32(SB)/8, $0x40c0000040c00000
DATA hsVec<>+40(SB)/8, $0x40c0000040c00000
DATA hsVec<>+48(SB)/8, $0x40c0000040c00000
DATA hsVec<>+56(SB)/8, $0x40c0000040c00000
DATA hsVec<>+64(SB)/8, $0x3f8000003f800000
DATA hsVec<>+72(SB)/8, $0x3f8000003f800000
DATA hsVec<>+80(SB)/8, $0x3f8000003f800000
DATA hsVec<>+88(SB)/8, $0x3f8000003f800000
GLOBL hsVec<>(SB), RODATA|NOPTR, $96

// COLMASK sets the lanes l of m whose image column AX + off + l lies in
// [0, inW); Y13 holds inW and Y14 −1 in every lane. Clobbers DX and Y15.
#define COLMASK(off, m) \
	LEAQ off(AX), DX; \
	VMOVD DX, X15; \
	VPBROADCASTD X15, Y15; \
	VPADDD dwLanes<>(SB), Y15, Y15; \
	VPCMPGTD Y14, Y15, m; \
	VPCMPGTD Y15, Y13, Y15; \
	VPAND Y15, m, m

// DWFASTOK sets the live-tap pattern the fast loop takes in this block: all
// nine when every lane of the reads it makes plainly is inside the image (DX
// holds their mask's sign bits), none otherwise (−1 is no pattern).
#define DWFASTOK \
	MOVQ $0x1ff, CX; \
	CMPL DX, $0xff; \
	JEQ  2(PC); \
	MOVQ $-1, CX; \
	MOVQ CX, fast-104(SP)

// DWCONST loads the constants of the row loops: +0, 1, 3 and 6.
#define DWCONST \
	VXORPS Y15, Y15, Y15; \
	VMOVUPS hsVec<>+64(SB), Y11; \
	VMOVUPS hsVec<>+0(SB), Y12; \
	VMOVUPS hsVec<>+32(SB), Y13

// DWLIVE sets bit t of BX when the plane's weight t (w in DX) is not ±0, NaN
// included: two overlapping eight-lane compares, w[0..7] and w[1..8].
// Clobbers CX and Y2.
#define DWLIVE \
	VCMPPS $4, (DX), Y15, Y2; \
	VMOVMSKPS Y2, BX; \
	VCMPPS $4, 4(DX), Y15, Y2; \
	VMOVMSKPS Y2, CX; \
	SHLL $1, CX; \
	ORL  CX, BX

// DWWEIGHT writes weight t (w in DX), broadcast and cut by mask m, into the
// table.
#define DWWEIGHT(t, m) \
	VBROADCASTSS (t*4)(DX), Y2; \
	VANDPS m, Y2, Y2; \
	VMOVAPS Y2, (t*32)(SI)

// DWPLANE starts a plane's rows: its bias into the table, the image and out
// cursors, oy = 0 and iy0 = −padH, and the row the general loop stops at —
// rowLo when the fast loop can take the interior rows (the block allows it,
// all nine taps are live and the bias is not −0), outH otherwise.
#define DWPLANE \
	MOVQ bp-72(SP), DX; \
	VBROADCASTSS (DX), Y2; \
	VMOVAPS Y2, 288(SI); \
	MOVL (DX), CX; \
	MOVQ ip-80(SP), R8; \
	MOVQ yp-88(SP), DI; \
	XORL R13, R13; \
	MOVQ padH+88(FP), R12; \
	NEGQ R12; \
	MOVQ outH+40(FP), DX; \
	CMPL CX, $-0x80000000; \
	JEQ  4(PC); \
	CMPL BX, fast-104(SP); \
	JNE  2(PC); \
	MOVQ rowLo+104(FP), DX; \
	MOVQ DX, gend-96(SP)

// DWROWTAPS sets AX to the taps that run in the output row at iy0 = R12: the
// live taps whose tap row lies inside the image. Clobbers CX and DX.
#define DWROWTAPS \
	XORL AX, AX; \
	MOVQ inH+56(FP), CX; \
	CMPQ R12, CX; \
	JAE  2(PC); \
	ORL  $0x007, AX; \
	LEAQ 1(R12), DX; \
	CMPQ DX, CX; \
	JAE  2(PC); \
	ORL  $0x038, AX; \
	LEAQ 2(R12), DX; \
	CMPQ DX, CX; \
	JAE  2(PC); \
	ORL  $0x1c0, AX; \
	ANDL BX, AX

// DWBIAS adds the plane's bias to the sum in v.
#define DWBIAS(v) \
	VADDPS 288(SI), v, v

// DWHSWISH turns v into v·hardSigmoid(v), clobbering s.
#define DWHSWISH(v, s) \
	HARDSIG(v, s, Y12, Y13, Y15, Y11); \
	VMULPS s, v, v

// DWGENNEXT moves the general loop one output row on.
#define DWGENNEXT \
	ADDQ R10, DI; \
	ADDQ R9, R8; \
	ADDQ strideH+72(FP), R12; \
	INCQ R13

// DWFASTEND leaves the fast loop's state as the general loop would have: oy
// and iy0 at the first row it did not take, and the general loop running to
// outH. The fast loop took the interior rows ANDed with rows (−2: whole
// pairs; −1: all of them).
#define DWFASTEND(rows) \
	MOVQ rowHi+112(FP), DX; \
	SUBQ R13, DX; \
	ANDQ rows, DX; \
	ADDQ DX, R13; \
	MOVQ R13, R12; \
	IMULQ strideH+72(FP), R12; \
	SUBQ padH+88(FP), R12; \
	MOVQ outH+40(FP), DX; \
	MOVQ DX, gend-96(SP)

// DWNEXTPLANE moves the plane cursors one plane on and counts it off.
#define DWNEXTPLANE \
	ADDQ $36, wp-64(SP); \
	ADDQ $4, bp-72(SP); \
	MOVQ inH+56(FP), DX; \
	IMULQ R11, DX; \
	ADDQ DX, ip-80(SP); \
	MOVQ outH+40(FP), DX; \
	IMULQ R10, DX; \
	ADDQ DX, yp-88(SP); \
	DECQ cpl-56(SP)

// DWTAP1 adds stride-1 tap t's term when bit t of AX says it runs in this
// row: the pixels at addr through its column mask m, times its weight.
#define DWTAP1(t, addr, m) \
	TESTL $(1<<t), AX; \
	JZ    4(PC); \
	VMASKMOVPS addr, m, Y2; \
	VMULPS (t*32)(SI), Y2, Y2; \
	VADDPS Y0, Y2, Y0

// DWPAIRA adds tap t's term (pixels in Y2) onto the first row's sum; DWPAIRB
// onto the second's. DWFIRSTA and DWFIRSTB start a sum at its first term.
#define DWPAIRA(t) \
	VMULPS (t*32)(SI), Y2, Y3; \
	VADDPS Y0, Y3, Y0

#define DWPAIRB(t) \
	VMULPS (t*32)(SI), Y2, Y4; \
	VADDPS Y1, Y4, Y1

#define DWFIRSTA VMULPS (SI), Y2, Y0
#define DWFIRSTB VMULPS (SI), Y2, Y1

// The window rows of a stride-1 pair (the first row's sum in Y0 at R8, the
// second's in Y1 one image row below, DX = R8 + 2·R11): window row w is
// image row iy0 + w, each of its three columns loaded once (tap column 1 by a
// plain load, which the block's check allows) and added to tap w's row of the
// first sum and tap w−1's of the second. DWWIN0 and DWWIN1TOP start the first
// sum; DWWIN1 and DWWIN1TOP start the second.
#define DWWIN0 \
	LEAQ (R8)(R11*2), DX; \
	VMASKMOVPS (R8), Y9, Y2; \
	DWFIRSTA; \
	VMOVUPS 4(R8), Y2; \
	DWPAIRA(1); \
	VMASKMOVPS 8(R8), Y14, Y2; \
	DWPAIRA(2)

#define DWWIN1 \
	VMASKMOVPS (R8)(R11*1), Y9, Y2; \
	DWPAIRA(3); \
	DWFIRSTB; \
	VMOVUPS 4(R8)(R11*1), Y2; \
	DWPAIRA(4); \
	DWPAIRB(1); \
	VMASKMOVPS 8(R8)(R11*1), Y14, Y2; \
	DWPAIRA(5); \
	DWPAIRB(2)

#define DWWIN1TOP \
	LEAQ (R8)(R11*2), DX; \
	VMASKMOVPS (R8)(R11*1), Y9, Y2; \
	VMULPS 96(SI), Y2, Y0; \
	DWFIRSTB; \
	VMOVUPS 4(R8)(R11*1), Y2; \
	DWPAIRA(4); \
	DWPAIRB(1); \
	VMASKMOVPS 8(R8)(R11*1), Y14, Y2; \
	DWPAIRA(5); \
	DWPAIRB(2)

#define DWWIN2 \
	VMASKMOVPS (DX), Y9, Y2; \
	DWPAIRA(6); \
	DWPAIRB(3); \
	VMOVUPS 4(DX), Y2; \
	DWPAIRA(7); \
	DWPAIRB(4); \
	VMASKMOVPS 8(DX), Y14, Y2; \
	DWPAIRA(8); \
	DWPAIRB(5)

#define DWWIN3 \
	VMASKMOVPS (DX)(R11*1), Y9, Y2; \
	DWPAIRB(6); \
	VMOVUPS 4(DX)(R11*1), Y2; \
	DWPAIRB(7); \
	VMASKMOVPS 8(DX)(R11*1), Y14, Y2; \
	DWPAIRB(8)

// DWPAIRNEXT stores the pair and moves two output rows on.
#define DWPAIRNEXT \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, (DI)(R10*1); \
	LEAQ (DI)(R10*2), DI; \
	LEAQ (R8)(R9*2), R8; \
	DECQ CX

// DWROW2 adds one tap row's three stride-2 terms (taps t0, t0+1, t0+2) when
// bit t of AX says they run: pixels 0–15 from a0/a32 de-interleave into tap
// columns 0 and 1, pixels 2–17 from a8/a40 into tap column 2.
#define DWROW2(t0, a0, a32, a8, a40) \
	TESTL $(3<<t0), AX; \
	JZ    13(PC); \
	VMASKMOVPS a0, Y9, Y1; \
	VMASKMOVPS a32, Y10, Y2; \
	TESTL $(1<<t0), AX; \
	JZ    4(PC); \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VMULPS (t0*32)(SI), Y3, Y3; \
	VADDPS Y0, Y3, Y0; \
	TESTL $(2<<t0), AX; \
	JZ    4(PC); \
	VSHUFPS $0xDD, Y2, Y1, Y3; \
	VMULPS (t0*32+32)(SI), Y3, Y3; \
	VADDPS Y0, Y3, Y0; \
	TESTL $(4<<t0), AX; \
	JZ    6(PC); \
	VMASKMOVPS a8, Y7, Y1; \
	VMASKMOVPS a40, Y8, Y2; \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VMULPS (t0*32+64)(SI), Y3, Y3; \
	VADDPS Y0, Y3, Y0

// DWFAST2 is DWROW2 without the tests, elements 8–15 and 2–9 by plain loads,
// which the block's check allows; DWFAST2FIRST is DWFAST2 starting the sum at
// tap t0's term. DWFAST2ROW runs an interior row's three tap rows, DWFAST2TOP
// a top row's last two.
#define DWFAST2(t0, a0, a32, a8, a40) \
	VMASKMOVPS a0, Y9, Y1; \
	VMOVUPS a32, Y2; \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VMULPS (t0*32)(SI), Y3, Y3; \
	VADDPS Y0, Y3, Y0; \
	DWFAST2REST(t0, a8, a40)

#define DWFAST2FIRST(t0, a0, a32, a8, a40) \
	VMASKMOVPS a0, Y9, Y1; \
	VMOVUPS a32, Y2; \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VMULPS (t0*32)(SI), Y3, Y0; \
	DWFAST2REST(t0, a8, a40)

// DWFAST2REST adds tap columns 1 and 2 of DWFAST2's tap row.
#define DWFAST2REST(t0, a8, a40) \
	VSHUFPS $0xDD, Y2, Y1, Y4; \
	VMULPS (t0*32+32)(SI), Y4, Y4; \
	VADDPS Y0, Y4, Y0; \
	VMOVUPS a8, Y1; \
	VMASKMOVPS a40, Y8, Y2; \
	VSHUFPS $0x88, Y2, Y1, Y3; \
	VMULPS (t0*32+64)(SI), Y3, Y3; \
	VADDPS Y0, Y3, Y0

#define DWFAST2ROW \
	DWFAST2FIRST(0, (R8), 32(R8), 8(R8), 40(R8)); \
	DWFAST2(3, (R8)(R11*1), 32(R8)(R11*1), 8(R8)(R11*1), 40(R8)(R11*1)); \
	DWFAST2(6, (R8)(R11*2), 32(R8)(R11*2), 8(R8)(R11*2), 40(R8)(R11*2))

#define DWFAST2TOP \
	DWFAST2FIRST(3, (R8)(R11*1), 32(R8)(R11*1), 8(R8)(R11*1), 40(R8)(R11*1)); \
	DWFAST2(6, (R8)(R11*2), 32(R8)(R11*2), 8(R8)(R11*2), 40(R8)(R11*2))

// DWROW2NEXT stores a stride-2 row, its lanes back in order, and moves one
// output row on.
#define DWROW2NEXT \
	VPERMPD $0xD8, Y0, Y0; \
	VMOVUPS Y0, (DI); \
	ADDQ R10, DI; \
	ADDQ R9, R8; \
	DECQ CX

// func depthwise3x3(y, img, w, bias *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW, rowLo, rowHi, edges int, act Act)
TEXT ·depthwise3x3(SB), NOSPLIT, $456-129
	PCALIGN $64
	MOVQ inW+64(FP), R11
	SHLQ $2, R11
	MOVQ strideH+72(FP), R9
	IMULQ R11, R9
	MOVQ outW+48(FP), R10
	SHLQ $2, R10
	LEAQ wtab-456(SP), SI
	ADDQ $31, SI
	ANDQ $-32, SI               // the weight table, 32-byte aligned
	MOVQ $0, ox0-40(SP)

dwBlock:
	MOVQ outW+48(FP), CX
	SUBQ ox0-40(SP), CX         // columns left
	JLE  dwDone
	CMPQ CX, $8
	JGE  dwFull
	MOVQ ox0-40(SP), DX
	TESTQ DX, DX
	JZ   dwNarrow               // outW < 8: one block of CX lanes
	LEAQ -8(DX)(CX*1), DX
	MOVQ DX, ox0-40(SP)         // the last eight columns, again
dwFull:
	MOVQ $8, CX
dwNarrow:
	MOVQ CX, nl-48(SP)          // lanes in this block
	LEAQ vecMask<>(SB), DX
	NEGQ CX
	VMOVDQU 32(DX)(CX*4), Y13
	VMOVDQU Y13, smask-32(SP)   // … and their store mask
	MOVQ ox0-40(SP), AX
	IMULQ strideW+80(FP), AX
	SUBQ padW+96(FP), AX        // ix0
	MOVQ w+16(FP), DX
	MOVQ DX, wp-64(SP)
	MOVQ bias+24(FP), DX
	MOVQ DX, bp-72(SP)
	MOVQ ox0-40(SP), DX
	SHLQ $2, DX
	ADDQ y+0(FP), DX
	MOVQ DX, yp-88(SP)
	MOVQ padH+88(FP), DX
	IMULQ inW+64(FP), DX
	NEGQ DX
	ADDQ AX, DX
	SHLQ $2, DX
	ADDQ img+8(FP), DX
	MOVQ DX, ip-80(SP)          // tap (0, 0) of output row 0, lane 0
	MOVQ planes+32(FP), DX
	MOVQ DX, cpl-56(SP)
	MOVQ inW+64(FP), DX
	VMOVD DX, X13
	VPBROADCASTD X13, Y13
	VPCMPEQD Y14, Y14, Y14
	CMPQ strideW+80(FP), $2
	JEQ  dwBlock2
	COLMASK(0, Y9)
	COLMASK(1, Y10)
	COLMASK(2, Y14)
	VMOVMSKPS Y10, DX
	DWFASTOK
	DWCONST

dw1Plane:
	MOVQ wp-64(SP), DX
	DWLIVE
	DWWEIGHT(0, Y9)
	DWWEIGHT(1, Y10)
	DWWEIGHT(2, Y14)
	DWWEIGHT(3, Y9)
	DWWEIGHT(4, Y10)
	DWWEIGHT(5, Y14)
	DWWEIGHT(6, Y9)
	DWWEIGHT(7, Y10)
	DWWEIGHT(8, Y14)
	DWPLANE

dw1Gen:
	CMPQ R13, gend-96(SP)
	JGE  dw1GenEnd
	DWROWTAPS
	VXORPS Y0, Y0, Y0
	DWTAP1(0, (R8), Y9)
	DWTAP1(1, 4(R8), Y10)
	DWTAP1(2, 8(R8), Y14)
	DWTAP1(3, (R8)(R11*1), Y9)
	DWTAP1(4, 4(R8)(R11*1), Y10)
	DWTAP1(5, 8(R8)(R11*1), Y14)
	DWTAP1(6, (R8)(R11*2), Y9)
	DWTAP1(7, 4(R8)(R11*2), Y10)
	DWTAP1(8, 8(R8)(R11*2), Y14)
	DWBIAS(Y0)
	CMPB act+128(FP), $1
	JB   dw1Store               // identity
	JA   dw1Hswish
	VMAXPS Y15, Y0, Y0
	JMP  dw1Store

dw1Hswish:
	DWHSWISH(Y0, Y3)

dw1Store:
	CMPQ nl-48(SP), $8
	JNE  dw1Tail
	VMOVUPS Y0, (DI)
	JMP  dw1Next

dw1Tail:
	VMOVDQU smask-32(SP), Y3
	VMASKMOVPS Y0, Y3, (DI)

dw1Next:
	DWGENNEXT
	JMP  dw1Gen

dw1GenEnd:
	CMPQ R13, outH+40(FP)
	JGE  dw1PlaneEnd
	MOVQ edges+120(FP), AX      // what is left to run: bit 0 the top pair, bit 1 the bottom one
	TESTQ $1, AX
	JZ   dw1Mid
	DWWIN1TOP
	DWWIN2
	DWWIN3
	JMP  dw1EdgeEp

dw1Mid:
	MOVQ rowHi+112(FP), CX
	SUBQ R13, CX
	SHRQ $1, CX                 // pairs of fast rows …
	MOVQ edges+120(FP), DX
	ANDQ $1, DX
	SUBQ DX, CX
	MOVQ edges+120(FP), DX
	SHRQ $1, DX
	SUBQ DX, CX                 // … but the edge ones
	JLE  dw1Bottom
	CMPB act+128(FP), $1
	JB   dw1PairId
	JA   dw1PairHs

dw1PairReLU:
	DWWIN0
	DWWIN1
	DWWIN2
	DWWIN3
	DWBIAS(Y0)
	DWBIAS(Y1)
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1
	DWPAIRNEXT
	JNZ  dw1PairReLU
	JMP  dw1Bottom

dw1PairId:
	DWWIN0
	DWWIN1
	DWWIN2
	DWWIN3
	DWBIAS(Y0)
	DWBIAS(Y1)
	DWPAIRNEXT
	JNZ  dw1PairId
	JMP  dw1Bottom

dw1PairHs:
	DWWIN0
	DWWIN1
	DWWIN2
	DWWIN3
	DWBIAS(Y0)
	DWBIAS(Y1)
	DWHSWISH(Y0, Y3)
	DWHSWISH(Y1, Y4)
	DWPAIRNEXT
	JNZ  dw1PairHs

dw1Bottom:
	TESTQ $2, AX
	JZ   dw1FastEnd
	XORL AX, AX
	DWWIN0
	DWWIN1
	DWWIN2

dw1EdgeEp:                  // an edge pair's epilogue, the act read here
	DWBIAS(Y0)
	DWBIAS(Y1)
	CMPB act+128(FP), $1
	JB   dw1EdgeStore
	JA   dw1EdgeHs
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1
	JMP  dw1EdgeStore

dw1EdgeHs:
	DWHSWISH(Y0, Y3)
	DWHSWISH(Y1, Y4)

dw1EdgeStore:
	DWPAIRNEXT
	TESTQ $1, AX
	JZ   dw1FastEnd
	ANDQ $-2, AX                // the top pair is done
	JMP  dw1Mid

dw1FastEnd:
	DWFASTEND($-2)
	JMP  dw1Gen

dw1PlaneEnd:
	DWNEXTPLANE
	JNZ  dw1Plane
	ADDQ $8, ox0-40(SP)
	JMP  dwBlock

dwBlock2:
	COLMASK(0, Y9)
	COLMASK(8, Y10)
	COLMASK(2, Y7)
	COLMASK(10, Y8)
	VANDPS Y10, Y7, Y2
	VMOVMSKPS Y2, DX
	DWFASTOK
	VSHUFPS $0x88, Y10, Y9, Y5  // the lanes tap column 0 lands in
	VSHUFPS $0xDD, Y10, Y9, Y6  // … column 1
	VSHUFPS $0x88, Y8, Y7, Y14  // … column 2
	DWCONST

dw2Plane:
	MOVQ wp-64(SP), DX
	DWLIVE
	DWWEIGHT(0, Y5)
	DWWEIGHT(1, Y6)
	DWWEIGHT(2, Y14)
	DWWEIGHT(3, Y5)
	DWWEIGHT(4, Y6)
	DWWEIGHT(5, Y14)
	DWWEIGHT(6, Y5)
	DWWEIGHT(7, Y6)
	DWWEIGHT(8, Y14)
	DWPLANE

dw2Gen:
	CMPQ R13, gend-96(SP)
	JGE  dw2GenEnd
	DWROWTAPS
	VXORPS Y0, Y0, Y0
	DWROW2(0, (R8), 32(R8), 8(R8), 40(R8))
	DWROW2(3, (R8)(R11*1), 32(R8)(R11*1), 8(R8)(R11*1), 40(R8)(R11*1))
	DWROW2(6, (R8)(R11*2), 32(R8)(R11*2), 8(R8)(R11*2), 40(R8)(R11*2))
	DWBIAS(Y0)
	CMPB act+128(FP), $1
	JB   dw2Store               // identity
	JA   dw2Hswish
	VMAXPS Y15, Y0, Y0
	JMP  dw2Store

dw2Hswish:
	DWHSWISH(Y0, Y3)

dw2Store:
	VPERMPD $0xD8, Y0, Y0       // lanes back in order
	CMPQ nl-48(SP), $8
	JNE  dw2Tail
	VMOVUPS Y0, (DI)
	JMP  dw2Next

dw2Tail:
	VMOVDQU smask-32(SP), Y3
	VMASKMOVPS Y0, Y3, (DI)

dw2Next:
	DWGENNEXT
	JMP  dw2Gen

dw2GenEnd:
	CMPQ R13, outH+40(FP)
	JGE  dw2PlaneEnd
	MOVQ rowHi+112(FP), CX
	SUBQ R13, CX                // the fast rows
	TESTQ $1, edges+120(FP)
	JZ   dw2Mid
	DWFAST2TOP
	DWBIAS(Y0)
	CMPB act+128(FP), $1
	JB   dw2TopStore
	JA   dw2TopHs
	VMAXPS Y15, Y0, Y0
	JMP  dw2TopStore

dw2TopHs:
	DWHSWISH(Y0, Y3)

dw2TopStore:
	DWROW2NEXT
	JZ   dw2FastEnd

dw2Mid:
	CMPB act+128(FP), $1
	JB   dw2FastId
	JA   dw2FastHs

dw2FastReLU:
	DWFAST2ROW
	DWBIAS(Y0)
	VMAXPS Y15, Y0, Y0
	DWROW2NEXT
	JNZ  dw2FastReLU
	JMP  dw2FastEnd

dw2FastId:
	DWFAST2ROW
	DWBIAS(Y0)
	DWROW2NEXT
	JNZ  dw2FastId
	JMP  dw2FastEnd

dw2FastHs:
	DWFAST2ROW
	DWBIAS(Y0)
	DWHSWISH(Y0, Y3)
	DWROW2NEXT
	JNZ  dw2FastHs

dw2FastEnd:
	DWFASTEND($-1)
	JMP  dw2Gen

dw2PlaneEnd:
	DWNEXTPLANE
	JNZ  dw2Plane
	ADDQ $8, ox0-40(SP)
	JMP  dwBlock

dwDone:
	VZEROUPPER
	RET

// func gradW3x3(acc, dy, img *float32, planes, outH, outW, inH, inW, strideH, strideW, padH, padW int, scratch *float32)
//
// The 3×3 depthwise weight gradients of up to eight planes. A tap's sum folds
// its output positions one at a time in ascending (oy, ox) order — that order
// is the result — so the lanes go across planes instead: Y0–Y8 hold the nine
// taps' sums, one plane per lane, and each position adds
// dy[oy,ox]·(the tap's pixel) to every tap inside the image, VMULPS then
// VADDPS (the sum first). The multiply's first source is the one a plain
// build compiles the Go loop's row walk at that position with, which decides
// what NaN survives of two: dy at a position where a kernel row's three taps
// are not all inside the image (tapRowDot), the pixel where they are
// (tapRowDot3). A tap outside the image at this position is skipped by
// branch; the geometry is the same in every lane.
//
// The planes are laid out position-major first, eight lanes per position:
// the image at scratch, the output gradient after it, each rounded up to
// whole 8×8 blocks transposed in registers. A lane with no plane (fewer than
// eight) repeats the last plane. The finished sums go over the copies, and
// each plane's nine are added onto its dw[t] the way the Go loop adds its own.
//
// Register plan (phase 2): DI the dy vector of this position, SI the pixel
// vector of tap (0,0), R11 = 32·inW, R10 = 32·strideW, R8 = ix0 (the tap-(0,0)
// column, signed), R9 positions left in the row, R12 = iy0, R13 rows left,
// BX the taps whose row is inside, AX the taps that run, Y9 dy, Y10 the
// product.

// TRANSPOSE8 turns rows Y0–Y7 (eight planes at eight positions) into eight
// position vectors and stores them at DI, DI+32, …, DI+224.
#define TRANSPOSE8 \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VSHUFPS $0x44, Y10, Y8, Y0; \
	VSHUFPS $0xEE, Y10, Y8, Y1; \
	VSHUFPS $0x44, Y11, Y9, Y2; \
	VSHUFPS $0xEE, Y11, Y9, Y3; \
	VSHUFPS $0x44, Y14, Y12, Y4; \
	VSHUFPS $0xEE, Y14, Y12, Y5; \
	VSHUFPS $0x44, Y15, Y13, Y6; \
	VSHUFPS $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15; \
	VMOVUPS Y8, (DI); \
	VMOVUPS Y9, 32(DI); \
	VMOVUPS Y10, 64(DI); \
	VMOVUPS Y11, 96(DI); \
	VMOVUPS Y12, 128(DI); \
	VMOVUPS Y13, 160(DI); \
	VMOVUPS Y14, 192(DI); \
	VMOVUPS Y15, 224(DI)

// GWPLANE points reg at plane min(c, planes−1) of the source (CX holds
// planes−1, DX the plane size in bytes). Clobbers AX.
#define GWPLANE(c, reg) \
	MOVQ $c, AX; \
	CMPQ AX, CX; \
	CMOVQGT CX, AX; \
	IMULQ DX, AX; \
	ADDQ src-8(SP), AX; \
	MOVQ AX, reg

// GWTAP adds tap bit's term into sum when the tap runs at this position, dy
// first in the multiply (the Go loop's tapRowDot).
#define GWTAP(bit, addr, sum) \
	TESTL $bit, AX; \
	JZ    3(PC); \
	VMULPS addr, Y9, Y10; \
	VADDPS Y10, sum, sum

// GWTAPIN is GWTAP with the pixel first in the multiply (tapRowDot3, which
// the Go loop runs where a kernel row's three taps are all inside).
#define GWTAPIN(bit, addr, sum) \
	TESTL $bit, AX; \
	JZ    4(PC); \
	VMOVUPS addr, Y10; \
	VMULPS Y9, Y10, Y10; \
	VADDPS Y10, sum, sum

// GWFOLD adds lane SI's sum of tap t onto dw[t] (DI), the sum first as in
// the Go loop's dw[t] += s.
#define GWFOLD(t) \
	VMOVSS (t*32)(SI), X0; \
	VADDSS (t*4)(DI), X0, X0; \
	VMOVSS X0, (t*4)(DI)

TEXT ·gradW3x3(SB), NOSPLIT, $40-104
	PCALIGN $64
	MOVQ img+16(FP), AX
	MOVQ AX, src-8(SP)
	MOVQ inH+48(FP), AX
	IMULQ inW+56(FP), AX
	MOVQ AX, n-16(SP)
	MOVQ scratch+96(FP), DI
	MOVQ $2, jobs-24(SP)

gwJob:
	MOVQ n-16(SP), DX
	SHLQ $2, DX
	MOVQ planes+24(FP), CX
	DECQ CX
	MOVQ src-8(SP), R8
	GWPLANE(1, R9)
	GWPLANE(2, R10)
	GWPLANE(3, R11)
	GWPLANE(4, R12)
	GWPLANE(5, R13)
	GWPLANE(6, BX)
	GWPLANE(7, SI)
	XORQ AX, AX                 // byte offset along the planes
	MOVQ n-16(SP), CX

gwT8:
	CMPQ CX, $8
	JLT  gwTTail
	VMOVUPS (R8)(AX*1), Y0
	VMOVUPS (R9)(AX*1), Y1
	VMOVUPS (R10)(AX*1), Y2
	VMOVUPS (R11)(AX*1), Y3
	VMOVUPS (R12)(AX*1), Y4
	VMOVUPS (R13)(AX*1), Y5
	VMOVUPS (BX)(AX*1), Y6
	VMOVUPS (SI)(AX*1), Y7
	TRANSPOSE8
	ADDQ $32, AX
	ADDQ $256, DI
	SUBQ $8, CX
	JMP  gwT8

gwTTail:
	TESTQ CX, CX
	JZ    gwTNext
	LEAQ vecMask<>(SB), DX
	NEGQ CX
	VMOVDQU 32(DX)(CX*4), Y8    // the positions left
	VMASKMOVPS (R8)(AX*1), Y8, Y0
	VMASKMOVPS (R9)(AX*1), Y8, Y1
	VMASKMOVPS (R10)(AX*1), Y8, Y2
	VMASKMOVPS (R11)(AX*1), Y8, Y3
	VMASKMOVPS (R12)(AX*1), Y8, Y4
	VMASKMOVPS (R13)(AX*1), Y8, Y5
	VMASKMOVPS (BX)(AX*1), Y8, Y6
	VMASKMOVPS (SI)(AX*1), Y8, Y7
	TRANSPOSE8
	ADDQ $256, DI

gwTNext:
	MOVQ dy+8(FP), AX
	MOVQ AX, src-8(SP)
	MOVQ outH+32(FP), AX
	IMULQ outW+40(FP), AX
	MOVQ AX, n-16(SP)
	DECQ jobs-24(SP)
	JNZ  gwJob

	MOVQ inH+48(FP), DI
	IMULQ inW+56(FP), DI
	ADDQ $7, DI
	ANDQ $~7, DI
	SHLQ $5, DI
	ADDQ scratch+96(FP), DI     // the first dy vector
	MOVQ inW+56(FP), R11
	LEAQ -2(R11), AX
	XORQ CX, CX
	CMPQ AX, CX
	CMOVQLT CX, AX
	MOVQ AX, bound-32(SP)       // max(0, inW−2)
	SHLQ $5, R11
	MOVQ strideW+72(FP), R10
	SHLQ $5, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	MOVQ padH+80(FP), R12
	NEGQ R12                    // iy0 of output row 0
	MOVQ outH+32(FP), R13

gwRow:
	XORQ BX, BX
	MOVQ inH+48(FP), CX
	CMPQ R12, CX                // unsigned: 0 ≤ iy0 < inH
	JAE  2(PC)
	ORQ  $0x007, BX
	LEAQ 1(R12), DX
	CMPQ DX, CX
	JAE  2(PC)
	ORQ  $0x038, BX
	LEAQ 2(R12), DX
	CMPQ DX, CX
	JAE  2(PC)
	ORQ  $0x1c0, BX
	MOVQ padW+88(FP), R8
	NEGQ R8                     // ix0 of output column 0
	MOVQ R12, SI
	IMULQ inW+56(FP), SI
	ADDQ R8, SI
	SHLQ $5, SI
	ADDQ scratch+96(FP), SI
	MOVQ outW+40(FP), R9

gwPos:
	MOVQ BX, AX
	VMOVUPS (DI), Y9
	CMPQ R8, bound-32(SP)       // unsigned: all three columns inside
	JAE  gwEdge
	GWTAPIN(0x001, (SI), Y0)
	GWTAPIN(0x002, 32(SI), Y1)
	GWTAPIN(0x004, 64(SI), Y2)
	GWTAPIN(0x008, (SI)(R11*1), Y3)
	GWTAPIN(0x010, 32(SI)(R11*1), Y4)
	GWTAPIN(0x020, 64(SI)(R11*1), Y5)
	GWTAPIN(0x040, (SI)(R11*2), Y6)
	GWTAPIN(0x080, 32(SI)(R11*2), Y7)
	GWTAPIN(0x100, 64(SI)(R11*2), Y8)
	JMP  gwNext

gwEdge:
	XORL CX, CX
	MOVQ inW+56(FP), DX
	CMPQ R8, DX
	JAE  2(PC)
	ORL  $0x049, CX
	LEAQ 1(R8), AX
	CMPQ AX, DX
	JAE  2(PC)
	ORL  $0x092, CX
	LEAQ 2(R8), AX
	CMPQ AX, DX
	JAE  2(PC)
	ORL  $0x124, CX
	MOVQ BX, AX
	ANDQ CX, AX
	GWTAP(0x001, (SI), Y0)
	GWTAP(0x002, 32(SI), Y1)
	GWTAP(0x004, 64(SI), Y2)
	GWTAP(0x008, (SI)(R11*1), Y3)
	GWTAP(0x010, 32(SI)(R11*1), Y4)
	GWTAP(0x020, 64(SI)(R11*1), Y5)
	GWTAP(0x040, (SI)(R11*2), Y6)
	GWTAP(0x080, 32(SI)(R11*2), Y7)
	GWTAP(0x100, 64(SI)(R11*2), Y8)

gwNext:
	ADDQ $32, DI
	ADDQ R10, SI
	ADDQ strideW+72(FP), R8
	DECQ R9
	JNZ  gwPos
	ADDQ strideH+64(FP), R12
	DECQ R13
	JNZ  gwRow
	MOVQ scratch+96(FP), SI     // the sums, tap-major, over the copies
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMOVUPS Y2, 64(SI)
	VMOVUPS Y3, 96(SI)
	VMOVUPS Y4, 128(SI)
	VMOVUPS Y5, 160(SI)
	VMOVUPS Y6, 192(SI)
	VMOVUPS Y7, 224(SI)
	VMOVUPS Y8, 256(SI)
	MOVQ dw+0(FP), DI
	MOVQ planes+24(FP), CX

gwFold:
	GWFOLD(0)
	GWFOLD(1)
	GWFOLD(2)
	GWFOLD(3)
	GWFOLD(4)
	GWFOLD(5)
	GWFOLD(6)
	GWFOLD(7)
	GWFOLD(8)
	ADDQ $4, SI
	ADDQ $36, DI
	DECQ CX
	JNZ  gwFold
	VZEROUPPER
	RET

// The aggregation step's two float64 sweeps (FoldScaled and SqDist in
// vec.go). n is a positive multiple of 4 — the Go callers run the last n%4
// elements in Go — so nothing is masked.
//
// FOLD4 is dst[j] += w·float64(src[j]) for four elements, each its own target:
// one convert, one VMULPD, one VADDPD. First sources are the compiler's in the
// Go loop — the converted element in the multiply, the product in the add —
// because of two NaN operands the first one's sign and payload survive.
#define FOLD4(s, d, y) \
	VCVTPS2PD s(SI), y; \
	VMULPD Y15, y, y; \
	VADDPD d(DI), y, y; \
	VMOVUPD y, d(DI)

// func foldScaled(dst *float64, src *float32, w float64, n int)
TEXT ·foldScaled(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD w+16(FP), Y15
	MOVQ n+24(FP), CX

foldBlk16:
	CMPQ CX, $16
	JLT  foldBlk4
	FOLD4(0, 0, Y0)
	FOLD4(16, 32, Y1)
	FOLD4(32, 64, Y2)
	FOLD4(48, 96, Y3)
	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  foldBlk16

foldBlk4:
	TESTQ CX, CX
	JZ    foldDone
	FOLD4(0, 0, Y0)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  foldBlk4

foldDone:
	VZEROUPPER
	RET

// SQ4 adds (float64(a[j]) − float64(b[j]))² for four elements into acc.
#define SQ4(o, y, t, acc) \
	VCVTPS2PD o(SI), y; \
	VCVTPS2PD o(DX), t; \
	VSUBPD t, y, y; \
	VMULPD y, y, y; \
	VADDPD y, acc, acc

// func sqDist(a, b *float32, n int) float64
//
// Σ_j (float64(a[j]) − float64(b[j]))² in LANE order: sixteen chains (Y0–Y3)
// take every sixteenth element each, then fold pairwise. The one routine
// here whose lanes lie along a reduction: its terms are the serial chain's
// bits, its sum is not. The package doc's third rule says who may call it.
TEXT ·sqDist(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

sqBlk16:
	CMPQ CX, $16
	JLT  sqBlk4
	SQ4(0, Y4, Y8, Y0)
	SQ4(16, Y5, Y9, Y1)
	SQ4(32, Y6, Y10, Y2)
	SQ4(48, Y7, Y11, Y3)
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $16, CX
	JMP  sqBlk16

sqBlk4:
	TESTQ CX, CX
	JZ    sqDone
	SQ4(0, Y4, Y8, Y0)
	ADDQ $16, SI
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  sqBlk4

sqDone:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X0, X0
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// ---- the training sweeps: activations, bias add, batch norm ----

// TAILMASK loads the mask of the first n%8 lanes into Y9 (n in reg).
#define TAILMASK(reg, tmp) \
	MOVQ reg, tmp; \
	ANDQ $7, tmp; \
	NEGQ tmp; \
	LEAQ vecMask<>(SB), reg; \
	VMOVDQU 32(reg)(tmp*4), Y9

// func hardSwish(y, x *float32, n int)
//
// y[i] = x[i] · hardSigmoid(x[i])
TEXT ·hardSwish(SB), NOSPLIT, $0-24
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	HSCONST
	XORQ AX, AX

hswBlk:
	CMPQ BX, $8
	JLT  hswTail
	VMOVUPS (SI)(AX*1), Y0
	HSWISH(Y0, Y1)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  hswBlk

hswTail:
	TESTQ BX, BX
	JZ    hswDone
	TAILMASK(BX, CX)
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	HSWISH(Y0, Y1)
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

hswDone:
	VZEROUPPER
	RET

// func biasAct(y *float32, rows, n int, bias *float32, act Act)
//
// y[r·n + j] = act(y[r·n + j] + bias[r]), act finished as in gemm: the conv
// bias add of training and the frozen conv epilogue.
TEXT ·biasAct(SB), NOSPLIT, $0-33
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ rows+8(FP), R13
	MOVQ n+16(FP), R10
	MOVQ bias+24(FP), SI
	MOVBLZX act+32(FP), R8
	HSCONST
	MOVQ R10, BX
	TAILMASK(BX, CX)
	MOVQ R10, R11
	SHLQ $2, R11            // row step, bytes

baRow:
	VBROADCASTSS (SI), Y10
	XORQ AX, AX
	MOVQ R10, BX

baBlk:
	CMPQ BX, $8
	JLT  baTail
	VMOVUPS (DI)(AX*1), Y0

baAct:                      // one block of y in Y0: eight columns or the tail
	VADDPS Y10, Y0, Y0
	CMPQ R8, $1
	JB   baStore            // identity
	JA   baHswish
	VMAXPS Y15, Y0, Y0
	JMP  baStore

baHswish:
	HSWISH(Y0, Y1)

baStore:
	CMPQ BX, $8
	JLT  baStoreTail
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  baBlk

baTail:
	TESTQ BX, BX
	JZ    baNext
	VMASKMOVPS (DI)(AX*1), Y9, Y0
	JMP   baAct

baStoreTail:
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

baNext:
	ADDQ R11, DI
	ADDQ $4, SI
	DECQ R13
	JNZ  baRow
	VZEROUPPER
	RET

// func scaleRows(y, x, z *float32, rows, n int)
//
// y[r·n + j] = x[r·n + j] · z[r]: the squeeze-excite rescale.
TEXT ·scaleRows(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ z+16(FP), DX
	MOVQ rows+24(FP), R13
	MOVQ n+32(FP), R10
	MOVQ R10, BX
	TAILMASK(BX, CX)
	XORQ AX, AX             // element offset, bytes, across the rows

srRow:
	VBROADCASTSS (DX), Y10
	MOVQ R10, BX

srBlk:
	CMPQ BX, $8
	JLT  srTail
	VMOVUPS (SI)(AX*1), Y0
	VMULPS Y10, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  srBlk

srTail:
	TESTQ BX, BX
	JZ    srNext
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VMULPS Y10, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)(AX*1)
	LEAQ (AX)(BX*4), AX

srNext:
	ADDQ $4, DX
	DECQ R13
	JNZ  srRow
	VZEROUPPER
	RET

// func add(out, a, b *float32, n int)
//
// out[i] = a[i] + b[i]: the identity-skip residual sum.
TEXT ·add(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), BX
	XORQ AX, AX

addBlk32:
	CMPQ BX, $32
	JLT  addBlk8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y1
	VMOVUPS 64(SI)(AX*1), Y2
	VMOVUPS 96(SI)(AX*1), Y3
	VADDPS (DX)(AX*1), Y0, Y0
	VADDPS 32(DX)(AX*1), Y1, Y1
	VADDPS 64(DX)(AX*1), Y2, Y2
	VADDPS 96(DX)(AX*1), Y3, Y3
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $32, BX
	JMP  addBlk32

addBlk8:
	CMPQ BX, $8
	JLT  addTail
	VMOVUPS (SI)(AX*1), Y0
	VADDPS (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  addBlk8

addTail:
	TESTQ BX, BX
	JZ    addDone
	TAILMASK(BX, CX)
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VMASKMOVPS (DX)(AX*1), Y9, Y1
	VADDPS Y1, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

addDone:
	VZEROUPPER
	RET

// func bnNormalize(out, x *float32, stride, rows, n int, mean, inv, gamma, beta float32, act Act)
//
// For r < rows, j < n at offset r·stride + j (one channel across the batch):
// out = act(((x − mean)·inv)·g + b), act finished as in gemm. Nothing else
// is stored: the backward recomputes x̂ from x.
//
// Register plan: DI out, SI x, R11 the row step (bytes), R13 rows left, R10
// n, AX column offset (bytes), BX columns left, R8 act; Y4–Y7 mean, inv, g,
// b, Y9 the tail mask, Y12–Y15 = 3, 6, 1, +0.
TEXT ·bnNormalize(SB), NOSPLIT, $0-57
	PCALIGN $64
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ stride+16(FP), R11
	SHLQ $2, R11
	MOVQ rows+24(FP), R13
	MOVQ n+32(FP), R10
	VBROADCASTSS mean+40(FP), Y4
	VBROADCASTSS inv+44(FP), Y5
	VBROADCASTSS gamma+48(FP), Y6
	VBROADCASTSS beta+52(FP), Y7
	MOVBLZX act+56(FP), R8
	HSCONST
	MOVQ R10, BX
	TAILMASK(BX, CX)

bnfRow:
	XORQ AX, AX
	MOVQ R10, BX

bnfBlk:
	CMPQ BX, $8
	JLT  bnfTail
	VMOVUPS (SI)(AX*1), Y0

bnfAct:                     // one block of x in Y0: eight columns or the tail
	VSUBPS Y4, Y0, Y0
	VMULPS Y5, Y0, Y0
	VMULPS Y6, Y0, Y1
	VADDPS Y7, Y1, Y1
	CMPQ R8, $1
	JB   bnfStore           // identity
	JA   bnfHswish
	VMAXPS Y15, Y1, Y1
	JMP  bnfStore

bnfHswish:
	HSWISH(Y1, Y0)

bnfStore:
	CMPQ BX, $8
	JLT  bnfStoreTail
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  bnfBlk

bnfTail:
	TESTQ BX, BX
	JZ    bnfNext
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	JMP   bnfAct

bnfStoreTail:
	VMASKMOVPS Y1, Y9, (DI)(AX*1)

bnfNext:
	ADDQ R11, DI
	ADDQ R11, SI
	DECQ R13
	JNZ  bnfRow
	VZEROUPPER
	RET

// BNGRAD turns dz = Y0, x = Y1 into the batch-norm input gradient in Y0:
// x̂ = (x − mean)·inv by bnNormalize's two operations, then
// ((((dz·g)·m − sDyG) − (x̂·sDyXh)·g)·scale, each product's first operand
// the one the Go loop's multiply keeps; constants in Y8, Y10–Y15.
#define BNGRAD \
	VSUBPS Y15, Y1, Y1; \
	VMULPS Y8, Y1, Y1; \
	VMULPS Y10, Y0, Y0; \
	VMULPS Y12, Y0, Y0; \
	VSUBPS Y13, Y0, Y0; \
	VMULPS Y14, Y1, Y1; \
	VMULPS Y10, Y1, Y1; \
	VSUBPS Y1, Y0, Y0; \
	VMULPS Y11, Y0, Y0

// func bnGradX(dx, dz, x *float32, stride, rows, n int, mean, inv, gamma, scale, m, sDyG, sDyXh float32)
//
// One channel's input gradient over bnNormalize's layout. dx may be dz: each
// block is read before it is written.
TEXT ·bnGradX(SB), NOSPLIT, $0-76
	PCALIGN $64
	MOVQ dx+0(FP), DI
	MOVQ dz+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ stride+24(FP), R11
	SHLQ $2, R11
	MOVQ rows+32(FP), R13
	MOVQ n+40(FP), R10
	VBROADCASTSS mean+48(FP), Y15
	VBROADCASTSS inv+52(FP), Y8
	VBROADCASTSS gamma+56(FP), Y10
	VBROADCASTSS scale+60(FP), Y11
	VBROADCASTSS m+64(FP), Y12
	VBROADCASTSS sDyG+68(FP), Y13
	VBROADCASTSS sDyXh+72(FP), Y14
	MOVQ R10, BX
	TAILMASK(BX, CX)

bnbRow:
	XORQ AX, AX
	MOVQ R10, BX

bnbBlk:
	CMPQ BX, $8
	JLT  bnbTail
	VMOVUPS (DX)(AX*1), Y0
	VMOVUPS (SI)(AX*1), Y1
	BNGRAD
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  bnbBlk

bnbTail:
	TESTQ BX, BX
	JZ    bnbNext
	VMASKMOVPS (DX)(AX*1), Y9, Y0
	VMASKMOVPS (SI)(AX*1), Y9, Y1
	BNGRAD
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

bnbNext:
	ADDQ R11, DI
	ADDQ R11, DX
	ADDQ R11, SI
	DECQ R13
	JNZ  bnbRow
	VZEROUPPER
	RET

// The batch-norm reductions. A channel's float64 sums fold its elements one
// at a time — that order is the result — but the channels are independent
// targets, so the lanes are channels: eight neighbouring channels' planes
// (n elements each, n apart) are read four consecutive j at a time as ROWS,
// channels k and k+4 in the two halves of one register, transposed in place
// so that each COLUMN register holds one j for the eight channels, widened
// (VCVTPS2PD, low and high half) and folded with one VADDPD per sum, VMULPD
// before the second — four float64 chains, each channel's j ascending,
// samples ascending.
//
// Register plan of both: R9 = 4n (channel pitch, bytes), R10 = 12n, R11 =
// sample stride (bytes), AX bytes advanced along j, CX j left, R13 samples
// left, BX scratch; SI / R8 channels 0–3 / 4–7 of the first operand. Y12/Y13
// the first sum (channels 0–3 / 4–7), Y14/Y15 the second.

// BNLOAD fills rows y0–y3 (x0–x3 their low halves) with
// p[k][j..j+3] | q[k][j..j+3], k = 0..3.
#define BNLOAD(p, q, y0, x0, y1, x1, y2, x2, y3, x3) \
	VMOVUPS (p), x0; \
	VINSERTF128 $1, (q), y0, y0; \
	VMOVUPS (p)(R9*1), x1; \
	VINSERTF128 $1, (q)(R9*1), y1, y1; \
	VMOVUPS (p)(R9*2), x2; \
	VINSERTF128 $1, (q)(R9*2), y2, y2; \
	VMOVUPS (p)(R10*1), x3; \
	VINSERTF128 $1, (q)(R10*1), y3, y3

// BNLOADMASK is BNLOAD for the last n%4 j through the lane mask m (masked-off
// lanes read as zero and never touch memory); t is a scratch register.
#define BNLOADMASK(p, q, m, t, y0, x0, y1, x1, y2, x2, y3, x3) \
	VMASKMOVPS (p), m, x0; \
	VMASKMOVPS (q), m, t; \
	VINSERTF128 $1, t, y0, y0; \
	VMASKMOVPS (p)(R9*1), m, x1; \
	VMASKMOVPS (q)(R9*1), m, t; \
	VINSERTF128 $1, t, y1, y1; \
	VMASKMOVPS (p)(R9*2), m, x2; \
	VMASKMOVPS (q)(R9*2), m, t; \
	VINSERTF128 $1, t, y2, y2; \
	VMASKMOVPS (p)(R10*1), m, x3; \
	VMASKMOVPS (q)(R10*1), m, t; \
	VINSERTF128 $1, t, y3, y3

// BNTRANSPOSE turns rows r0–r3 into columns c0–c3 (j, j+1, j+2, j+3), each
// holding that j for the eight channels in lane order. c2 and c3 double as
// scratch and r0 and r1 are clobbered, so c1 may be r0.
#define BNTRANSPOSE(r0, r1, r2, r3, c0, c1, c2, c3) \
	VUNPCKLPS r1, r0, c2; \
	VUNPCKHPS r1, r0, c3; \
	VUNPCKLPS r3, r2, r0; \
	VUNPCKHPS r3, r2, r1; \
	VUNPCKLPD r0, c2, c0; \
	VUNPCKHPD r0, c2, c1; \
	VUNPCKLPD r1, c3, c2; \
	VUNPCKHPD r1, c3, c3

// BNWIDEN leaves column (ay, its low half ax) as float64 in Y0 (channels 0–3)
// and Y1 (4–7) and folds it into Σa.
#define BNWIDEN(ay, ax) \
	VCVTPS2PD ax, Y0; \
	VEXTRACTF128 $1, ay, X1; \
	VCVTPS2PD X1, Y1; \
	VADDPD Y0, Y12, Y12; \
	VADDPD Y1, Y13, Y13

// BNSQ folds one column of a into Σa and Σa·a.
#define BNSQ(ay, ax) \
	BNWIDEN(ay, ax); \
	VMULPD Y0, Y0, Y2; \
	VMULPD Y1, Y1, Y3; \
	VADDPD Y2, Y14, Y14; \
	VADDPD Y3, Y15, Y15

// BNDOT folds one column of a and the same column of b into Σa and Σb·a
// (b the product's first operand, as in the Go loop).
#define BNDOT(ay, ax, by, bx) \
	BNWIDEN(ay, ax); \
	VCVTPS2PD bx, Y2; \
	VEXTRACTF128 $1, by, X3; \
	VCVTPS2PD X3, Y3; \
	VMULPD Y0, Y2, Y2; \
	VMULPD Y1, Y3, Y3; \
	VADDPD Y2, Y14, Y14; \
	VADDPD Y3, Y15, Y15

// BNSETUP loads the shared registers of both reductions.
#define BNSETUP(aArg, strideArg, rowsArg, nArg) \
	MOVQ aArg, SI; \
	MOVQ strideArg, R11; \
	SHLQ $2, R11; \
	MOVQ rowsArg, R13; \
	MOVQ nArg, R9; \
	SHLQ $2, R9; \
	LEAQ (R9)(R9*2), R10; \
	VXORPD Y12, Y12, Y12; \
	VXORPD Y13, Y13, Y13; \
	VXORPD Y14, Y14, Y14; \
	VXORPD Y15, Y15, Y15

// BNSTORE writes the eight first and the eight second sums.
#define BNSTORE(sumArg, dotArg) \
	MOVQ sumArg, DI; \
	VMOVUPD Y12, (DI); \
	VMOVUPD Y13, 32(DI); \
	MOVQ dotArg, DI; \
	VMOVUPD Y14, (DI); \
	VMOVUPD Y15, 32(DI); \
	VZEROUPPER

// BNTAILMASK loads the mask of the first CX (1..3) of four lanes into m.
#define BNTAILMASK(m) \
	LEAQ vecMask<>(SB), BX; \
	NEGQ CX; \
	VMOVDQU 32(BX)(CX*4), m; \
	NEGQ CX

// func bnSumSq(sum, dot *float64, a *float32, stride, rows, n int)
//
// sum[c] = Σ a, dot[c] = Σ a·a over rows samples of n elements for the eight
// channels c·n into a: the training forward's (Σx, Σx²).
TEXT ·bnSumSq(SB), NOSPLIT, $0-48
	PCALIGN $64
	BNSETUP(a+16(FP), stride+24(FP), rows+32(FP), n+40(FP))

bnqRow:
	LEAQ (SI)(R9*4), R8
	XORQ AX, AX
	MOVQ n+40(FP), CX

bnqBlk:
	CMPQ CX, $4
	JLT  bnqTail
	BNLOAD(SI, R8, Y0, X0, Y1, X1, Y2, X2, Y3, X3)
	BNTRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	BNSQ(Y4, X4)
	BNSQ(Y5, X5)
	BNSQ(Y6, X6)
	BNSQ(Y7, X7)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, AX
	SUBQ $4, CX
	JMP  bnqBlk

bnqTail:
	TESTQ CX, CX
	JZ    bnqNext
	BNTAILMASK(X4)
	BNLOADMASK(SI, R8, X4, X5, Y0, X0, Y1, X1, Y2, X2, Y3, X3)
	BNTRANSPOSE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	BNSQ(Y4, X4)
	CMPQ CX, $2
	JLT  bnqNext
	BNSQ(Y5, X5)
	CMPQ CX, $3
	JLT  bnqNext
	BNSQ(Y6, X6)

bnqNext:
	SUBQ AX, SI
	ADDQ R11, SI
	DECQ R13
	JNZ  bnqRow
	BNSTORE(sum+0(FP), dot+8(FP))
	RET

// The backward's reduction computes in the rows' layout, where a register
// holds four j of channels k and k+4, so the dz it stores needs no shuffle.
// Its per-channel constants are spread into that layout once per call, on
// the frame: row k's mean, inv, g and b hold channel k's value in the low
// half and channel k+4's in the high half, and the absolute-value mask lies
// beside them; the row macros read them, and hsVec's 3, 6 and 1, as memory
// operands.

// BNSPREAD lays the eight float32 at ptrArg out as rows 0–3, at o0–o3.
#define BNSPREAD(ptrArg, o0, o1, o2, o3) \
	MOVQ ptrArg, AX; \
	VMOVUPS (AX), Y0; \
	VSHUFPS $0x00, Y0, Y0, Y1; \
	VMOVUPS Y1, o0; \
	VSHUFPS $0x55, Y0, Y0, Y1; \
	VMOVUPS Y1, o1; \
	VSHUFPS $0xaa, Y0, Y0, Y1; \
	VMOVUPS Y1, o2; \
	VSHUFPS $0xff, Y0, Y0, Y1; \
	VMOVUPS Y1, o3

// BNXHAT turns the x row r into x̂ = (x − mean)·inv, bnNormalize's two
// operations.
#define BNXHAT(r, mean, inv) \
	VSUBPS mean, r, r; \
	VMULPS inv, r, r

// BNZ leaves z = x̂·g + b in Y8, in bnNormalize's operand order.
#define BNZ(xh, g, b) \
	VMULPS g, xh, Y8; \
	VADDPS b, Y8, Y8

// BNRELUGRAD turns the dy row d into dz = dy where z > 0, else +0: the
// ordered compare is false for NaN and −0, like the Go loop's z > 0.
#define BNRELUGRAD(xh, d, g, b) \
	BNZ(xh, g, b); \
	VXORPS Y9, Y9, Y9; \
	VCMPPS $0x1e, Y9, Y8, Y8; \
	VANDPS Y8, d, d

// BNHSWGRAD turns the dy row d into dz = der·dy, der = hs(z) + z/6 inside
// (−3, 3): HARDSIG, then |z| < 3 (false for NaN, like the Go loop's two
// compares) selects z/6 or +0, which is added to hs(z) — adding +0 leaves
// hs(z), which is never −0, as the Go loop's skipped add does. Clobbers
// Y9–Y11.
#define BNHSWGRAD(xh, d, g, b) \
	BNZ(xh, g, b); \
	VXORPS Y10, Y10, Y10; \
	VMOVUPS hsVec<>+64(SB), Y11; \
	HARDSIG(Y8, Y9, hsVec<>+0(SB), hsVec<>+32(SB), Y10, Y11); \
	VANDPS abs-32(SP), Y8, Y10; \
	VCMPPS $0x11, hsVec<>+0(SB), Y10, Y10; \
	VDIVPS hsVec<>+32(SB), Y8, Y11; \
	VANDPS Y10, Y11, Y11; \
	VADDPS Y11, Y9, Y9; \
	VMULPS d, Y9, d

// BNSTOREROWS writes the dz rows Y4–Y7 back to p[k][j..j+3] | q[k][j..j+3].
#define BNSTOREROWS(p, q) \
	VMOVUPS X4, (p); \
	VEXTRACTF128 $1, Y4, (q); \
	VMOVUPS X5, (p)(R9*1); \
	VEXTRACTF128 $1, Y5, (q)(R9*1); \
	VMOVUPS X6, (p)(R9*2); \
	VEXTRACTF128 $1, Y6, (q)(R9*2); \
	VMOVUPS X7, (p)(R10*1); \
	VEXTRACTF128 $1, Y7, (q)(R10*1)

// BNSTOREMASK is BNSTOREROWS for the last n%4 j through the lane mask m; t
// is a scratch register.
#define BNSTOREMASK(p, q, m, t) \
	VMASKMOVPS X4, m, (p); \
	VEXTRACTF128 $1, Y4, t; \
	VMASKMOVPS t, m, (q); \
	VMASKMOVPS X5, m, (p)(R9*1); \
	VEXTRACTF128 $1, Y5, t; \
	VMASKMOVPS t, m, (q)(R9*1); \
	VMASKMOVPS X6, m, (p)(R9*2); \
	VEXTRACTF128 $1, Y6, t; \
	VMASKMOVPS t, m, (q)(R9*2); \
	VMASKMOVPS X7, m, (p)(R10*1); \
	VEXTRACTF128 $1, Y7, t; \
	VMASKMOVPS t, m, (q)(R10*1)

// func bnSumDot(sum, dot *float64, dz, dy, x *float32, stride, rows, n int, mean, inv, gamma, beta *float32, act Act)
//
// The training backward's reduction over bnSumSq's layout, for the eight
// channels c·n into x and dy: per element x̂ = (x − mean[c])·inv[c] and,
// unless act is the identity, z = g[c]·x̂ + b[c] and dz = act′(z)·dy, stored
// into dz; then sum[c] = Σ dz and dot[c] = Σ dz·x̂ (dz is dy for the
// identity, which stores nothing).
//
// Register plan (beside the shared one): DX / R12 channels 0–3 / 4–7 of dy,
// DI / R14 of dz; Y0–Y3 the x̂ rows, Y4–Y7 the dy rows (then dz), Y8–Y11 the
// activation's scratch; after the transposes Y10, Y4, Y8, Y9 the dz columns
// and Y5, Y6, Y7, Y11 the x̂ columns, Y0–Y3 BNDOT's scratch.
TEXT ·bnSumDot(SB), NOSPLIT, $544-97
	PCALIGN $64
	BNSPREAD(mean+64(FP), mean0-544(SP), mean1-416(SP), mean2-288(SP), mean3-160(SP))
	BNSPREAD(inv+72(FP), inv0-512(SP), inv1-384(SP), inv2-256(SP), inv3-128(SP))
	BNSPREAD(gamma+80(FP), g0-480(SP), g1-352(SP), g2-224(SP), g3-96(SP))
	BNSPREAD(beta+88(FP), b0-448(SP), b1-320(SP), b2-192(SP), b3-64(SP))
	VPCMPEQD Y0, Y0, Y0
	VPSRLD $1, Y0, Y0
	VMOVUPS Y0, abs-32(SP)
	BNSETUP(x+32(FP), stride+40(FP), rows+48(FP), n+56(FP))
	MOVQ dy+24(FP), DX
	MOVQ dz+16(FP), DI

bndRow:
	LEAQ (SI)(R9*4), R8
	LEAQ (DX)(R9*4), R12
	LEAQ (DI)(R9*4), R14
	XORQ AX, AX
	MOVQ n+56(FP), CX

bndBlk:
	CMPQ CX, $4
	JLT  bndTail
	BNLOAD(SI, R8, Y0, X0, Y1, X1, Y2, X2, Y3, X3)
	BNLOAD(DX, R12, Y4, X4, Y5, X5, Y6, X6, Y7, X7)

bndXhat:                    // one block in Y0–Y7: four j or the tail
	BNXHAT(Y0, mean0-544(SP), inv0-512(SP))
	BNXHAT(Y1, mean1-416(SP), inv1-384(SP))
	BNXHAT(Y2, mean2-288(SP), inv2-256(SP))
	BNXHAT(Y3, mean3-160(SP), inv3-128(SP))
	CMPB act+96(FP), $1
	JB   bndFold            // identity: fold dy
	JA   bndHswish
	BNRELUGRAD(Y0, Y4, g0-480(SP), b0-448(SP))
	BNRELUGRAD(Y1, Y5, g1-352(SP), b1-320(SP))
	BNRELUGRAD(Y2, Y6, g2-224(SP), b2-192(SP))
	BNRELUGRAD(Y3, Y7, g3-96(SP), b3-64(SP))
	JMP  bndStore

bndHswish:
	BNHSWGRAD(Y0, Y4, g0-480(SP), b0-448(SP))
	BNHSWGRAD(Y1, Y5, g1-352(SP), b1-320(SP))
	BNHSWGRAD(Y2, Y6, g2-224(SP), b2-192(SP))
	BNHSWGRAD(Y3, Y7, g3-96(SP), b3-64(SP))

bndStore:
	CMPQ CX, $4
	JLT  bndStoreTail
	BNSTOREROWS(DI, R14)
	JMP  bndFold

bndStoreTail:
	BNTAILMASK(X8)
	BNSTOREMASK(DI, R14, X8, X9)

bndFold:
	BNTRANSPOSE(Y4, Y5, Y6, Y7, Y10, Y4, Y8, Y9)
	BNTRANSPOSE(Y0, Y1, Y2, Y3, Y5, Y6, Y7, Y11)
	CMPQ CX, $4
	JLT  bndFoldTail
	BNDOT(Y10, X10, Y5, X5)
	BNDOT(Y4, X4, Y6, X6)
	BNDOT(Y8, X8, Y7, X7)
	BNDOT(Y9, X9, Y11, X11)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, DX
	ADDQ $16, R12
	ADDQ $16, DI
	ADDQ $16, R14
	ADDQ $16, AX
	SUBQ $4, CX
	JMP  bndBlk

bndTail:
	TESTQ CX, CX
	JZ    bndNext
	BNTAILMASK(X8)
	BNLOADMASK(SI, R8, X8, X9, Y0, X0, Y1, X1, Y2, X2, Y3, X3)
	BNLOADMASK(DX, R12, X8, X9, Y4, X4, Y5, X5, Y6, X6, Y7, X7)
	JMP   bndXhat

bndFoldTail:
	BNDOT(Y10, X10, Y5, X5)
	CMPQ CX, $2
	JLT  bndNext
	BNDOT(Y4, X4, Y6, X6)
	CMPQ CX, $3
	JLT  bndNext
	BNDOT(Y8, X8, Y7, X7)

bndNext:
	SUBQ AX, SI
	SUBQ AX, DX
	SUBQ AX, DI
	ADDQ R11, SI
	ADDQ R11, DX
	ADDQ R11, DI
	DECQ R13
	JNZ  bndRow
	BNSTORE(sum+0(FP), dot+8(FP))
	RET
