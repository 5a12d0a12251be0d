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

// The hard-sigmoid constants 3, 6, 1, −3 as float32 bits.
DATA hsConst<>+0(SB)/4, $0x40400000
DATA hsConst<>+4(SB)/4, $0x40c00000
DATA hsConst<>+8(SB)/4, $0x3f800000
DATA hsConst<>+12(SB)/4, $0xc0400000
GLOBL hsConst<>(SB), RODATA|NOPTR, $16

// HSCONST loads 3, 6, 1, 0 into Y12–Y15.
#define HSCONST \
	VBROADCASTSS hsConst<>+0(SB), Y12; \
	VBROADCASTSS hsConst<>+4(SB), Y13; \
	VBROADCASTSS hsConst<>+8(SB), Y14; \
	VXORPS Y15, Y15, Y15

// HARDSIG leaves hardSigmoid(v) in s: s = (v+3)/6; s < 0 → 0; s > 1 → 1.
// Clobbers lt and gt; the constants are HSCONST's.
#define HARDSIG(v, s, lt, gt) \
	VADDPS Y12, v, s; \
	VDIVPS Y13, s, s; \
	VCMPPS $0x11, Y15, s, lt; \
	VCMPPS $0x1e, Y14, s, gt; \
	VBLENDVPS lt, Y15, s, s; \
	VBLENDVPS gt, Y14, s, s

// HSWISH turns v into v·hardSigmoid(v), clobbering s, lt and gt.
#define HSWISH(v, s, lt, gt) \
	HARDSIG(v, s, lt, gt); \
	VMULPS s, v, v

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
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
	HSWISH(Y0, Y5, Y6, Y7)
	HSWISH(Y1, Y5, Y6, Y7)
	HSWISH(Y2, Y5, Y6, Y7)
	HSWISH(Y3, Y5, Y6, Y7)

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
	HSWISH(Y0, Y5, Y6, Y7)

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

// The 3×3 depthwise forward. Each output position is one target: a sum from
// +0 that takes its in-image, non-zero taps in ascending (ky, kx) order, one
// VMULPS and one VADDPS each with the Go loop's first sources — the pixel in
// the multiply, the product in the add, which decide what NaN survives of
// two — then the bias add and, optionally, hard-swish, and one store. The
// lanes are eight output positions of a row (ox0 .. ox0+7); the nine weights
// stay broadcast in Y0–Y8 for the whole column block and the rows of the
// block run beneath them, so a position's nine taps never leave registers.
// Tap column kx of lane l reads image column ix0 + l·strideW + kx,
// ix0 = ox0·strideW − padW.
//
// Skipping. A tap row outside the image (top and bottom output rows) and a
// zero weight skip their terms by branch: bit t of AX is set when tap t runs
// in this output row, and the branch is the same for every lane. A tap column
// outside the image skips per lane: its pixels come in through VMASKMOVPS
// with that lane masked off (so no read leaves the image and the lane loads
// +0), and the same lane of the weight is ANDed to +0 once per column block,
// so the lane's product is +0·+0 = +0 — an exact no-op on a sum that began at
// +0 — even where the weight is Inf or NaN.
//
// Stride 2 reads sixteen consecutive pixels per tap row (elements 0–7 and
// 8–15 from the first tap column) and de-interleaves them with VSHUFPS
// $0x88 / $0xDD and VPERMPD $0xD8 into the lanes of tap columns 0 and 1;
// tap column 2 reads elements 2–17 the same way. The masks of those reads are
// cut from the image row's bounds, element by element, and the weight masks
// are their de-interleaves.
//
// Register plan: Y0–Y8 the nine weights (masked), Y11 the bias, Y12 the sum,
// Y13 and Y15 scratch; stride 1: Y9, Y10, Y14 the column masks of tap columns
// 0–2; stride 2: Y9/Y10 the masks of elements 0–7/8–15, those of 2–9/10–17
// in the frame, Y14 scratch. AX the taps that run in this row, BX the live
// taps, DI out (row, block), R8 the image pixel of tap (0, 0) at lane 0, R9
// its step per output row (bytes), R10 = 4·outW, R11 = 4·inW, R12 = iy0 (the
// image row of tap row 0), R13 rows left, SI the bound below which iy0 has
// all three tap rows inside.

// dwLanes holds the int32 lane indices 0 … 7.
DATA dwLanes<>+0(SB)/8, $0x0000000100000000
DATA dwLanes<>+8(SB)/8, $0x0000000300000002
DATA dwLanes<>+16(SB)/8, $0x0000000500000004
DATA dwLanes<>+24(SB)/8, $0x0000000700000006
GLOBL dwLanes<>(SB), RODATA|NOPTR, $32

// hsVec holds the hard-sigmoid constants 3, 6 and 1 in eight lanes each,
// for the epilogue that has no register to spare for them.
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

// DWWEIGHT broadcasts weight t (w in DX) into r, its lanes cut by mask m.
#define DWWEIGHT(t, r, m) \
	VBROADCASTSS (t*4)(DX), r; \
	VANDPS m, r, r

// DWTAP1 adds stride-1 tap bit's term when the tap runs in this row: the
// pixels at addr through its column mask m, times its weight w.
#define DWTAP1(bit, addr, m, w) \
	TESTL $bit, AX; \
	JZ    4(PC); \
	VMASKMOVPS addr, m, Y13; \
	VMULPS w, Y13, Y13; \
	VADDPS Y12, Y13, Y12

// DWROW2 adds one tap row's three stride-2 terms (tap bits b0, b1, b2,
// weights w0–w2): pixels 0–15 from a0/a32 de-interleave into tap columns 0
// and 1, pixels 2–17 from a8/a40 into tap column 2.
#define DWROW2(b0, b1, b2, a0, a32, a8, a40, w0, w1, w2) \
	TESTL $(b0|b1), AX; \
	JZ    15(PC); \
	VMASKMOVPS a0, Y9, Y13; \
	VMASKMOVPS a32, Y10, Y14; \
	TESTL $b0, AX; \
	JZ    5(PC); \
	VSHUFPS $0x88, Y14, Y13, Y15; \
	VPERMPD $0xD8, Y15, Y15; \
	VMULPS w0, Y15, Y15; \
	VADDPS Y12, Y15, Y12; \
	TESTL $b1, AX; \
	JZ    5(PC); \
	VSHUFPS $0xDD, Y14, Y13, Y15; \
	VPERMPD $0xD8, Y15, Y15; \
	VMULPS w1, Y15, Y15; \
	VADDPS Y12, Y15, Y12; \
	TESTL $b2, AX; \
	JZ    9(PC); \
	VMOVDQU ma2-64(SP), Y15; \
	VMASKMOVPS a8, Y15, Y13; \
	VMOVDQU mb2-96(SP), Y15; \
	VMASKMOVPS a40, Y15, Y14; \
	VSHUFPS $0x88, Y14, Y13, Y15; \
	VPERMPD $0xD8, Y15, Y15; \
	VMULPS w2, Y15, Y15; \
	VADDPS Y12, Y15, Y12

// func depthwise3x3(y, img, w *float32, outH, outW, inH, inW, strideH, strideW, padH, padW, live int, bias float32, hswish bool)
TEXT ·depthwise3x3(SB), NOSPLIT, $112-101
	MOVQ inW+48(FP), R11
	SHLQ $2, R11
	MOVQ strideH+56(FP), R9
	IMULQ R11, R9
	MOVQ outW+32(FP), R10
	SHLQ $2, R10
	MOVQ $0, ox0-104(SP)

dwBlock:
	MOVQ outW+32(FP), CX
	SUBQ ox0-104(SP), CX        // columns left
	JLE  dwDone
	MOVQ $8, DX
	CMPQ CX, DX
	CMOVQGT DX, CX
	MOVQ CX, nl-112(SP)         // lanes in this block
	LEAQ vecMask<>(SB), DX
	NEGQ CX
	VMOVDQU 32(DX)(CX*4), Y13
	VMOVDQU Y13, smask-32(SP)   // … and their store mask
	MOVQ ox0-104(SP), AX
	IMULQ strideW+64(FP), AX
	SUBQ padW+80(FP), AX        // ix0
	MOVQ inW+48(FP), DX
	VMOVD DX, X13
	VPBROADCASTD X13, Y13
	VPCMPEQD Y14, Y14, Y14
	CMPQ strideW+64(FP), $2
	JEQ  dwBlock2
	COLMASK(0, Y9)
	COLMASK(1, Y10)
	COLMASK(2, Y14)
	MOVQ w+16(FP), DX
	DWWEIGHT(0, Y0, Y9)
	DWWEIGHT(1, Y1, Y10)
	DWWEIGHT(2, Y2, Y14)
	DWWEIGHT(3, Y3, Y9)
	DWWEIGHT(4, Y4, Y10)
	DWWEIGHT(5, Y5, Y14)
	DWWEIGHT(6, Y6, Y9)
	DWWEIGHT(7, Y7, Y10)
	DWWEIGHT(8, Y8, Y14)
	JMP  dwRows

dwBlock2:
	COLMASK(0, Y9)
	COLMASK(8, Y10)
	COLMASK(2, Y11)
	VMOVDQU Y11, ma2-64(SP)
	COLMASK(10, Y12)
	VMOVDQU Y12, mb2-96(SP)
	VSHUFPS $0x88, Y12, Y11, Y12
	VPERMPD $0xD8, Y12, Y12     // the lanes tap column 2 lands in
	VSHUFPS $0x88, Y10, Y9, Y11
	VPERMPD $0xD8, Y11, Y11     // … column 0
	VSHUFPS $0xDD, Y10, Y9, Y13
	VPERMPD $0xD8, Y13, Y13     // … column 1
	MOVQ w+16(FP), DX
	DWWEIGHT(0, Y0, Y11)
	DWWEIGHT(1, Y1, Y13)
	DWWEIGHT(2, Y2, Y12)
	DWWEIGHT(3, Y3, Y11)
	DWWEIGHT(4, Y4, Y13)
	DWWEIGHT(5, Y5, Y12)
	DWWEIGHT(6, Y6, Y11)
	DWWEIGHT(7, Y7, Y13)
	DWWEIGHT(8, Y8, Y12)

dwRows:
	VBROADCASTSS bias+96(FP), Y11
	MOVQ ox0-104(SP), DI
	SHLQ $2, DI
	ADDQ y+0(FP), DI
	MOVQ padH+72(FP), R12
	NEGQ R12                    // iy0 of output row 0
	MOVQ R12, R8
	IMULQ inW+48(FP), R8
	ADDQ AX, R8
	SHLQ $2, R8
	ADDQ img+8(FP), R8
	MOVQ outH+24(FP), R13
	MOVQ live+88(FP), BX
	MOVQ inH+40(FP), SI
	SUBQ $2, SI
	XORL DX, DX
	CMPQ SI, DX
	CMOVQLT DX, SI              // max(inH−2, 0)

dwRow:
	MOVQ BX, AX
	CMPQ R12, SI                // unsigned: 0 ≤ iy0 < inH−2
	JB   dwRowIn
	// a row at the top or bottom: only the tap rows inside run
	XORL AX, AX
	MOVQ inH+40(FP), CX
	CMPQ R12, CX                // unsigned: 0 ≤ iy0 < inH
	JAE  2(PC)
	ORL  $0x007, AX
	LEAQ 1(R12), DX
	CMPQ DX, CX
	JAE  2(PC)
	ORL  $0x038, AX
	LEAQ 2(R12), DX
	CMPQ DX, CX
	JAE  2(PC)
	ORL  $0x1c0, AX
	ANDQ BX, AX

dwRowIn:
	VXORPS Y12, Y12, Y12
	CMPQ strideW+64(FP), $2
	JEQ  dwTaps2
	DWTAP1(0x001, (R8), Y9, Y0)
	DWTAP1(0x002, 4(R8), Y10, Y1)
	DWTAP1(0x004, 8(R8), Y14, Y2)
	DWTAP1(0x008, (R8)(R11*1), Y9, Y3)
	DWTAP1(0x010, 4(R8)(R11*1), Y10, Y4)
	DWTAP1(0x020, 8(R8)(R11*1), Y14, Y5)
	DWTAP1(0x040, (R8)(R11*2), Y9, Y6)
	DWTAP1(0x080, 4(R8)(R11*2), Y10, Y7)
	DWTAP1(0x100, 8(R8)(R11*2), Y14, Y8)
	JMP  dwEpilogue

dwTaps2:
	DWROW2(0x001, 0x002, 0x004, (R8), 32(R8), 8(R8), 40(R8), Y0, Y1, Y2)
	DWROW2(0x008, 0x010, 0x020, (R8)(R11*1), 32(R8)(R11*1), 8(R8)(R11*1), 40(R8)(R11*1), Y3, Y4, Y5)
	DWROW2(0x040, 0x080, 0x100, (R8)(R11*2), 32(R8)(R11*2), 8(R8)(R11*2), 40(R8)(R11*2), Y6, Y7, Y8)

dwEpilogue:
	VADDPS Y11, Y12, Y12
	CMPB hswish+100(FP), $0
	JEQ  dwStore
	// s·hardSigmoid(s): t = (s+3)/6; t < 0 → +0; t > 1 → 1
	VADDPS hsVec<>+0(SB), Y12, Y13
	VDIVPS hsVec<>+32(SB), Y13, Y13
	VXORPS Y15, Y15, Y15
	VCMPPS $0x11, Y15, Y13, Y15
	VANDNPS Y13, Y15, Y13
	VCMPPS $0x1e, hsVec<>+64(SB), Y13, Y15
	VBLENDVPS Y15, hsVec<>+64(SB), Y13, Y13
	VMULPS Y13, Y12, Y12

dwStore:
	CMPQ nl-112(SP), $8
	JNE  dwStoreTail
	VMOVUPS Y12, (DI)
	JMP  dwNext

dwStoreTail:
	VMOVDQU smask-32(SP), Y13
	VMASKMOVPS Y12, Y13, (DI)

dwNext:
	ADDQ R10, DI
	ADDQ R9, R8
	ADDQ strideH+56(FP), R12
	DECQ R13
	JNZ  dwRow
	ADDQ $8, ox0-104(SP)
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

// HSWGRAD turns v = Y0, dy = Y5 into dy·(hs(v) + [−3 < v < 3]·v/6) in Y5.
// Y11 holds −3. Clobbers Y1–Y4.
#define HSWGRAD \
	HARDSIG(Y0, Y1, Y2, Y3); \
	VCMPPS $0x1e, Y11, Y0, Y2; \
	VCMPPS $0x11, Y12, Y0, Y3; \
	VANDPS Y3, Y2, Y2; \
	VDIVPS Y13, Y0, Y4; \
	VADDPS Y4, Y1, Y4; \
	VBLENDVPS Y2, Y4, Y1, Y1; \
	VMULPS Y1, Y5, Y5

// func hardSwish(y, x *float32, n int)
//
// y[i] = x[i] · hardSigmoid(x[i])
TEXT ·hardSwish(SB), NOSPLIT, $0-24
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	HSCONST
	XORQ AX, AX

hswBlk:
	CMPQ BX, $8
	JLT  hswTail
	VMOVUPS (SI)(AX*1), Y0
	HSWISH(Y0, Y1, Y2, Y3)
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  hswBlk

hswTail:
	TESTQ BX, BX
	JZ    hswDone
	TAILMASK(BX, CX)
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	HSWISH(Y0, Y1, Y2, Y3)
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

hswDone:
	VZEROUPPER
	RET

// func hardSwishGrad(dx, dy, x *float32, n int)
//
// dx[i] = dy[i] · (hardSigmoid(x[i]) + x[i]/6 inside (−3, 3))
TEXT ·hardSwishGrad(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), BX
	HSCONST
	VBROADCASTSS hsConst<>+12(SB), Y11
	XORQ AX, AX

hsgBlk:
	CMPQ BX, $8
	JLT  hsgTail
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (DX)(AX*1), Y5
	HSWGRAD
	VMOVUPS Y5, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  hsgBlk

hsgTail:
	TESTQ BX, BX
	JZ    hsgDone
	TAILMASK(BX, CX)
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VMASKMOVPS (DX)(AX*1), Y9, Y5
	HSWGRAD
	VMASKMOVPS Y5, Y9, (DI)(AX*1)

hsgDone:
	VZEROUPPER
	RET

// func biasAct(y *float32, rows, n int, bias *float32, hswish bool)
//
// y[r·n + j] = act(y[r·n + j] + bias[r]), act the identity or hard-swish:
// the conv bias add of training and the frozen conv epilogue.
TEXT ·biasAct(SB), NOSPLIT, $0-33
	MOVQ y+0(FP), DI
	MOVQ rows+8(FP), R13
	MOVQ n+16(FP), R10
	MOVQ bias+24(FP), SI
	MOVBLZX hswish+32(FP), R8
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
	VADDPS Y10, Y0, Y0
	TESTQ R8, R8
	JZ   baStore
	HSWISH(Y0, Y1, Y2, Y3)

baStore:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  baBlk

baTail:
	TESTQ BX, BX
	JZ    baNext
	VMASKMOVPS (DI)(AX*1), Y9, Y0
	VADDPS Y10, Y0, Y0
	TESTQ R8, R8
	JZ   baStoreTail
	HSWISH(Y0, Y1, Y2, Y3)

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

// func bnNormalize(out, xhat, x *float32, stride, rows, n int, mean, inv, gamma, beta float32)
//
// For r < rows, j < n at offset r·stride + j (one channel across the batch):
// xhat = (x − mean)·inv; out = g·xhat + b.
TEXT ·bnNormalize(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ stride+24(FP), R11
	SHLQ $2, R11
	MOVQ rows+32(FP), R13
	MOVQ n+40(FP), R10
	VBROADCASTSS mean+48(FP), Y12
	VBROADCASTSS inv+52(FP), Y13
	VBROADCASTSS gamma+56(FP), Y14
	VBROADCASTSS beta+60(FP), Y15
	MOVQ R10, BX
	TAILMASK(BX, CX)

bnfRow:
	XORQ AX, AX
	MOVQ R10, BX

bnfBlk:
	CMPQ BX, $8
	JLT  bnfTail
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS Y12, Y0, Y0
	VMULPS Y13, Y0, Y0
	VMOVUPS Y0, (DX)(AX*1)
	VMULPS Y0, Y14, Y1
	VADDPS Y15, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  bnfBlk

bnfTail:
	TESTQ BX, BX
	JZ    bnfNext
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VSUBPS Y12, Y0, Y0
	VMULPS Y13, Y0, Y0
	VMASKMOVPS Y0, Y9, (DX)(AX*1)
	VMULPS Y0, Y14, Y1
	VADDPS Y15, Y1, Y1
	VMASKMOVPS Y1, Y9, (DI)(AX*1)

bnfNext:
	ADDQ R11, DI
	ADDQ R11, DX
	ADDQ R11, SI
	DECQ R13
	JNZ  bnfRow
	VZEROUPPER
	RET

// BNGRAD turns dy = Y0, xhat = Y1 into the batch-norm input gradient in Y0:
// scale·((m·(dy·g) − sDyG) − (xhat·sDyXh)·g), constants in Y10–Y14.
#define BNGRAD \
	VMULPS Y10, Y0, Y0; \
	VMULPS Y0, Y12, Y0; \
	VSUBPS Y13, Y0, Y0; \
	VMULPS Y14, Y1, Y1; \
	VMULPS Y10, Y1, Y1; \
	VSUBPS Y1, Y0, Y0; \
	VMULPS Y0, Y11, Y0

// func bnGradX(dx, dy, xhat *float32, stride, rows, n int, gamma, scale, m, sDyG, sDyXh float32)
TEXT ·bnGradX(SB), NOSPLIT, $0-68
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ xhat+16(FP), SI
	MOVQ stride+24(FP), R11
	SHLQ $2, R11
	MOVQ rows+32(FP), R13
	MOVQ n+40(FP), R10
	VBROADCASTSS gamma+48(FP), Y10
	VBROADCASTSS scale+52(FP), Y11
	VBROADCASTSS m+56(FP), Y12
	VBROADCASTSS sDyG+60(FP), Y13
	VBROADCASTSS sDyXh+64(FP), Y14
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
// (n elements each, n apart) are read four consecutive j at a time, channels
// k and k+4 in the two halves of one register, transposed in place so that
// each register holds ONE j for the eight channels, widened (VCVTPS2PD, low
// and high half) and folded with one VADDPD per sum, VMULPD before the second
// — four float64 chains, each channel's j ascending, samples ascending.
//
// Register plan: SI / R8 channels 0–3 / 4–7 of a, DX / R12 of b, R9 = 4n
// (channel pitch, bytes), R10 = 12n, R11 = sample stride (bytes), AX bytes
// advanced along j, CX j left, R13 samples left. Y12/Y13 Σa (channels 0–3 /
// 4–7), Y14/Y15 Σa·b.

// BNLOAD fills Y0–Y3 with p[k][j..j+3] | q[k][j..j+3], k = 0..3.
#define BNLOAD(p, q) \
	VMOVUPS (p), X0; \
	VINSERTF128 $1, (q), Y0, Y0; \
	VMOVUPS (p)(R9*1), X1; \
	VINSERTF128 $1, (q)(R9*1), Y1, Y1; \
	VMOVUPS (p)(R9*2), X2; \
	VINSERTF128 $1, (q)(R9*2), Y2, Y2; \
	VMOVUPS (p)(R10*1), X3; \
	VINSERTF128 $1, (q)(R10*1), Y3, Y3

// BNLOADMASK is BNLOAD for the last n%4 j through the lane mask m (masked-off
// lanes read as zero and never touch memory); t is a scratch register.
#define BNLOADMASK(p, q, m, t) \
	VMASKMOVPS (p), m, X0; \
	VMASKMOVPS (q), m, t; \
	VINSERTF128 $1, t, Y0, Y0; \
	VMASKMOVPS (p)(R9*1), m, X1; \
	VMASKMOVPS (q)(R9*1), m, t; \
	VINSERTF128 $1, t, Y1, Y1; \
	VMASKMOVPS (p)(R9*2), m, X2; \
	VMASKMOVPS (q)(R9*2), m, t; \
	VINSERTF128 $1, t, Y2, Y2; \
	VMASKMOVPS (p)(R10*1), m, X3; \
	VMASKMOVPS (q)(R10*1), m, t; \
	VINSERTF128 $1, t, Y3, Y3

// BNTRANSPOSE turns rows Y0–Y3 into columns c0–c3 (j, j+1, j+2, j+3), each
// holding that j for the eight channels in lane order. c2 and c3 double as
// scratch; Y0 and Y1 are clobbered.
#define BNTRANSPOSE(c0, c1, c2, c3) \
	VUNPCKLPS Y1, Y0, c2; \
	VUNPCKHPS Y1, Y0, c3; \
	VUNPCKLPS Y3, Y2, Y0; \
	VUNPCKHPS Y3, Y2, Y1; \
	VUNPCKLPD Y0, c2, c0; \
	VUNPCKHPD Y0, c2, c1; \
	VUNPCKLPD Y1, c3, c2; \
	VUNPCKHPD Y1, c3, c3

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

// BNDOT folds one column of a and the same column of b into Σa and Σa·b.
#define BNDOT(ay, ax, by, bx) \
	BNWIDEN(ay, ax); \
	VCVTPS2PD bx, Y2; \
	VEXTRACTF128 $1, by, X3; \
	VCVTPS2PD X3, Y3; \
	VMULPD Y2, Y0, Y2; \
	VMULPD Y3, Y1, Y3; \
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

// BNSTORE writes the eight Σa and the eight Σa·b.
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
	BNSETUP(a+16(FP), stride+24(FP), rows+32(FP), n+40(FP))

bnqRow:
	LEAQ (SI)(R9*4), R8
	XORQ AX, AX
	MOVQ n+40(FP), CX

bnqBlk:
	CMPQ CX, $4
	JLT  bnqTail
	BNLOAD(SI, R8)
	BNTRANSPOSE(Y4, Y5, Y6, Y7)
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
	BNLOADMASK(SI, R8, X4, X5)
	BNTRANSPOSE(Y4, Y5, Y6, Y7)
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

// func bnSumDot(sum, dot *float64, a, b *float32, stride, rows, n int)
//
// sum[c] = Σ a, dot[c] = Σ a·b over the same layout: the backward's
// (Σdy, Σdy·x̂).
TEXT ·bnSumDot(SB), NOSPLIT, $0-56
	BNSETUP(a+16(FP), stride+32(FP), rows+40(FP), n+48(FP))
	MOVQ b+24(FP), DX

bndRow:
	LEAQ (SI)(R9*4), R8
	LEAQ (DX)(R9*4), R12
	XORQ AX, AX
	MOVQ n+48(FP), CX

bndBlk:
	CMPQ CX, $4
	JLT  bndTail
	BNLOAD(SI, R8)
	BNTRANSPOSE(Y4, Y5, Y6, Y7)
	BNLOAD(DX, R12)
	BNTRANSPOSE(Y8, Y9, Y10, Y11)
	BNDOT(Y4, X4, Y8, X8)
	BNDOT(Y5, X5, Y9, X9)
	BNDOT(Y6, X6, Y10, X10)
	BNDOT(Y7, X7, Y11, X11)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, DX
	ADDQ $16, R12
	ADDQ $16, AX
	SUBQ $4, CX
	JMP  bndBlk

bndTail:
	TESTQ CX, CX
	JZ    bndNext
	BNTAILMASK(X4)
	BNLOADMASK(SI, R8, X4, X5)
	BNTRANSPOSE(Y4, Y5, Y6, Y7)
	BNTAILMASK(X8)
	BNLOADMASK(DX, R12, X8, X9)
	BNTRANSPOSE(Y8, Y9, Y10, Y11)
	BNDOT(Y4, X4, Y8, X8)
	CMPQ CX, $2
	JLT  bndNext
	BNDOT(Y5, X5, Y9, X9)
	CMPQ CX, $3
	JLT  bndNext
	BNDOT(Y6, X6, Y10, X10)

bndNext:
	SUBQ AX, SI
	SUBQ AX, DX
	ADDQ R11, SI
	ADDQ R11, DX
	DECQ R13
	JNZ  bndRow
	BNSTORE(sum+0(FP), dot+8(FP))
	RET
