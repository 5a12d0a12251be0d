//go:build amd64 && !purego

#include "textflag.h"

// AVX2 oracle-tier kernels. The rules every routine here keeps (see the
// tier comment in backend.go):
//
//   - lanes lie across INDEPENDENT accumulation targets — output columns,
//     output positions, (i,j) dot chains, the taps of a kernel — never along
//     a reduction axis, so each target still sees its partial products one at
//     a time in ascending inner-index order;
//   - one VMULPS, then one VADDPS with the accumulator as first source —
//     never an FMA, whose single rounding would change bits;
//   - the AXPY forms skip a[x] == ±0 (NaN is not skipped) exactly like the
//     Go loops' av != 0 test; the dot forms skip nothing;
//   - a lane that has no element (a row tail, a tap outside the image) is
//     masked out of every read and write, so no access leaves the slices;
//   - every routine ends in VZEROUPPER.
//
// The Go wrappers in vec.go validate every length before taking a pointer;
// nothing here re-checks, and m, n, k ≥ 1 is a precondition.

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

// func vecGemmAcc(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, m, n, k int)
//
// c[i·ldc + j] += Σ_x a[i·ars + x·acs] · b[x·ldb + j]   (i < m, j < n, x < k ascending)
//
// One output row at a time; within a row, 32 columns live in Y0–Y3 across
// the whole k extent, then 8-column blocks, then a masked tail of < 8.
// Terms with a == ±0 are skipped.
TEXT ·vecGemmAcc(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ acs+32(FP), R10
	SHLQ $2, R10            // a step per x, bytes
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11            // b step per x, bytes
	MOVQ m+56(FP), R13

gemmRow:
	XORQ AX, AX             // column offset, bytes
	MOVQ n+64(FP), BX       // columns left

gemmBlk32:
	CMPQ BX, $32
	JLT  gemmBlk8
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
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
	VMOVUPS (DI)(AX*1), Y0
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
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  gemmBlk8

gemmTail:
	TESTQ BX, BX
	JZ    gemmNextRow
	LEAQ  vecMask<>(SB), R12
	NEGQ  BX
	VMOVDQU 32(R12)(BX*4), Y9   // first -BX lanes
	VMASKMOVPS (DI)(AX*1), Y9, Y0
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

// func vecAxpyPlane(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)
//
// dst[r·dstStride + j] += w · src[r·srcStride + j]   (r < rows, j < n)
//
// One depthwise tap over a whole plane: every element is its own target and
// receives exactly one multiply-add, so lane placement is free.
TEXT ·vecAxpyPlane(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	SHLQ $2, R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	SHLQ $2, R9
	VBROADCASTSS w+32(FP), Y15
	MOVQ rows+40(FP), R13
	MOVQ n+48(FP), R10
	MOVQ R10, R11
	ANDQ $7, R11            // tail lanes
	JZ   axpyRow
	LEAQ vecMask<>(SB), R12
	NEGQ R11
	VMOVDQU 32(R12)(R11*4), Y9

axpyRow:
	XORQ AX, AX
	MOVQ R10, BX

axpyBlk32:
	CMPQ BX, $32
	JLT  axpyBlk8
	VMULPS (SI)(AX*1), Y15, Y0
	VMULPS 32(SI)(AX*1), Y15, Y1
	VMULPS 64(SI)(AX*1), Y15, Y2
	VMULPS 96(SI)(AX*1), Y15, Y3
	VMOVUPS (DI)(AX*1), Y4
	VMOVUPS 32(DI)(AX*1), Y5
	VMOVUPS 64(DI)(AX*1), Y6
	VMOVUPS 96(DI)(AX*1), Y7
	VADDPS Y0, Y4, Y4
	VADDPS Y1, Y5, Y5
	VADDPS Y2, Y6, Y6
	VADDPS Y3, Y7, Y7
	VMOVUPS Y4, (DI)(AX*1)
	VMOVUPS Y5, 32(DI)(AX*1)
	VMOVUPS Y6, 64(DI)(AX*1)
	VMOVUPS Y7, 96(DI)(AX*1)
	ADDQ $128, AX
	SUBQ $32, BX
	JMP  axpyBlk32

axpyBlk8:
	CMPQ BX, $8
	JLT  axpyTail
	VMULPS (SI)(AX*1), Y15, Y0
	VMOVUPS (DI)(AX*1), Y4
	VADDPS Y0, Y4, Y4
	VMOVUPS Y4, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  axpyBlk8

axpyTail:
	TESTQ BX, BX
	JZ    axpyNextRow
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VMULPS Y0, Y15, Y0
	VMASKMOVPS (DI)(AX*1), Y9, Y4
	VADDPS Y0, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)(AX*1)

axpyNextRow:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R13
	JNZ  axpyRow
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

// func vecDotTransB(out, a, b *float32, m, k, n int, acc bool)
//
// Requires n ≥ 8 (the Go wrapper runs narrower outputs on the Go loop).
TEXT ·vecDotTransB(SB), NOSPLIT, $0-49
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

// The stride-2 depthwise taps. A tap of a stride-2 plane kernel touches every
// second element of the wide side: y[j] += w·img[2j] forward, dimg[2j] +=
// w·dy[j] for the input gradient. Every element is still its own target with
// one multiply-add, so the lanes are eight consecutive j; what is new is the
// de-interleave. Fifteen wide elements cover eight j, and they are read as
// elements 0–7 and 7–14 — never a sixteenth, which the slice need not have.
// A last block of n%8 j goes through lane masks, so nothing is read or
// written past element 2(n−1).

// vecEven holds the VPERMPS indices that spread p0..p3 (then p4..p7) over
// lane pairs: [0 0 1 1 2 2 3 3] and [4 4 5 5 6 6 7 7].
DATA vecEven<>+0(SB)/8, $0x0000000000000000
DATA vecEven<>+8(SB)/8, $0x0000000100000001
DATA vecEven<>+16(SB)/8, $0x0000000200000002
DATA vecEven<>+24(SB)/8, $0x0000000300000003
DATA vecEven<>+32(SB)/8, $0x0000000400000004
DATA vecEven<>+40(SB)/8, $0x0000000500000005
DATA vecEven<>+48(SB)/8, $0x0000000600000006
DATA vecEven<>+56(SB)/8, $0x0000000700000007
GLOBL vecEven<>(SB), RODATA|NOPTR, $64

// S2SETUP loads the shared registers of both stride-2 routines: DI/R8 dst
// and its row step, SI/R9 src and its row step, Y15 = w, R13 rows, R10 = n,
// and for a tail of r = n%8: Y9 the first r lanes (the narrow side), Y10 the
// first min(8, 2r−1) lanes and Y11 the first max(0, 2r−8) lanes (the wide
// side's two reads).
#define S2SETUP \
	MOVQ dst+0(FP), DI; \
	MOVQ dstStride+8(FP), R8; \
	SHLQ $2, R8; \
	MOVQ src+16(FP), SI; \
	MOVQ srcStride+24(FP), R9; \
	SHLQ $2, R9; \
	VBROADCASTSS w+32(FP), Y15; \
	MOVQ rows+40(FP), R13; \
	MOVQ n+48(FP), R10; \
	MOVQ R10, R11; \
	ANDQ $7, R11; \
	LEAQ vecMask<>(SB), R12; \
	MOVQ R11, BX; \
	NEGQ BX; \
	VMOVDQU 32(R12)(BX*4), Y9; \
	LEAQ -1(R11)(R11*1), BX; \
	MOVQ $8, CX; \
	CMPQ BX, CX; \
	CMOVQGT CX, BX; \
	MOVQ $0, CX; \
	CMPQ BX, CX; \
	CMOVQLT CX, BX; \
	NEGQ BX; \
	VMOVDQU 32(R12)(BX*4), Y10; \
	LEAQ -8(R11)(R11*1), BX; \
	CMPQ BX, CX; \
	CMOVQLT CX, BX; \
	NEGQ BX; \
	VMOVDQU 32(R12)(BX*4), Y11

// func vecAxpyGather2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)
//
// dst[r·dstStride + j] += w · src[r·srcStride + 2j]   (r < rows, j < n)
TEXT ·vecAxpyGather2(SB), NOSPLIT, $0-56
	S2SETUP

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
	VMULPS Y0, Y15, Y0
	VMOVUPS (DI)(AX*1), Y4
	VADDPS Y0, Y4, Y4
	VMOVUPS Y4, (DI)(AX*1)
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
	VMULPS Y0, Y15, Y0
	VMASKMOVPS (DI)(AX*1), Y9, Y4
	VADDPS Y0, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)(AX*1)

g2Next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R13
	JNZ  g2Row
	VZEROUPPER
	RET

// func vecAxpyScatter2(dst *float32, dstStride int, src *float32, srcStride int, w float32, rows, n int)
//
// dst[r·dstStride + 2j] += w · src[r·srcStride + j]   (r < rows, j < n)
//
// The odd elements between the targets are re-stored from what was loaded,
// blended in unchanged, so they keep their bits (a −0 stays −0).
TEXT ·vecAxpyScatter2(SB), NOSPLIT, $0-56
	S2SETUP
	VMOVDQU vecEven<>+0(SB), Y13
	VMOVDQU vecEven<>+32(SB), Y14

s2Row:
	XORQ AX, AX             // src offset, bytes; dst is at twice that
	MOVQ R10, BX

s2Blk:
	CMPQ BX, $8
	JLT  s2Tail
	VMULPS (SI)(AX*1), Y15, Y0
	VPERMPS Y0, Y13, Y1         // p0 p0 p1 p1 p2 p2 p3 p3
	VPERMPS Y0, Y14, Y2         // p4 p4 p5 p5 p6 p6 p7 p7
	VMOVUPS (DI)(AX*2), Y4      // elements 0–7: targets in the even lanes
	VMOVUPS 28(DI)(AX*2), Y5    // elements 7–14: targets in the odd lanes
	VADDPS Y1, Y4, Y1
	VADDPS Y2, Y5, Y2
	VBLENDPS $0x55, Y1, Y4, Y4
	VBLENDPS $0xAA, Y2, Y5, Y5
	VMOVUPS Y4, (DI)(AX*2)
	VMOVUPS Y5, 28(DI)(AX*2)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  s2Blk

s2Tail:
	TESTQ BX, BX
	JZ    s2Next
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	VMULPS Y0, Y15, Y0
	VPERMPS Y0, Y13, Y1
	VPERMPS Y0, Y14, Y2
	VMASKMOVPS (DI)(AX*2), Y10, Y4
	VMASKMOVPS 28(DI)(AX*2), Y11, Y5
	VADDPS Y1, Y4, Y1
	VADDPS Y2, Y5, Y2
	VBLENDPS $0x55, Y1, Y4, Y4
	VBLENDPS $0xAA, Y2, Y5, Y5
	VMASKMOVPS Y4, Y10, (DI)(AX*2)
	VMASKMOVPS Y5, Y11, 28(DI)(AX*2)

s2Next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R13
	JNZ  s2Row
	VZEROUPPER
	RET

// func vecGradW3x3(acc, dy, img *float32, outH, outW, inH, inW, strideH, strideW, padH, padW int)
//
// One plane's 3×3 depthwise weight gradient. A tap's sum folds its output
// positions one at a time in ascending (oy, ox) order — that order is the
// result — but the nine taps are independent targets, so the lanes are the
// taps: X0, X1, X2 hold kernel rows 0, 1, 2 (lanes kx = 0, 1, 2; lane 3
// idle), and a position adds dy[oy,ox] · (the three pixels of each kernel
// row, one unaligned read) into them, VMULPS then VADDPS. A tap outside the
// image at this position must add nothing: its lane is masked out of the read
// (which therefore never leaves the plane) and its product is ANDed to +0,
// and s + (+0) is s for every sum that began at +0. A kernel row outside the
// image is skipped. acc receives the twelve lanes.
//
// Register plan: DI dy, SI pixel of tap (0,0) at this position, R11 = 4·inW,
// R10 = 4·strideW, DX = ix0 (the tap-(0,0) column, signed), R9 positions left
// in the row, R13 = iy0, BX bit k set when kernel row k is inside, R8 = the
// bound below which (unsigned) ix0 has all three columns inside, R12 the mask
// table, X6 the three-lane mask, X3 this position's mask, X5 dy broadcast.
TEXT ·vecGradW3x3(SB), NOSPLIT, $8-88
	MOVQ dy+8(FP), DI
	MOVQ inW+48(FP), R11
	LEAQ -2(R11), R8
	XORQ AX, AX
	CMPQ R8, AX
	CMOVQLT AX, R8          // max(0, inW−2)
	SHLQ $2, R11
	MOVQ strideW+64(FP), R10
	SHLQ $2, R10
	LEAQ vecMask<>(SB), R12
	VMOVDQU 20(R12), X6     // the first three of four lanes
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	MOVQ outH+24(FP), AX
	MOVQ AX, rowsLeft-8(SP)
	MOVQ padH+72(FP), R13
	NEGQ R13                // iy0 of output row 0

gwRow:
	XORQ BX, BX
	MOVQ inH+40(FP), CX
	CMPQ R13, CX            // unsigned: 0 ≤ iy0 < inH
	JAE  gwRow1
	ORQ  $1, BX

gwRow1:
	LEAQ 1(R13), AX
	CMPQ AX, CX
	JAE  gwRow2
	ORQ  $2, BX

gwRow2:
	LEAQ 2(R13), AX
	CMPQ AX, CX
	JAE  gwRowGo
	ORQ  $4, BX

gwRowGo:
	MOVQ padW+80(FP), DX
	NEGQ DX                 // ix0 of output column 0
	MOVQ R13, SI
	IMULQ inW+48(FP), SI
	ADDQ DX, SI
	SHLQ $2, SI
	ADDQ img+16(FP), SI
	MOVQ outW+32(FP), R9

gwPos:
	VMOVAPS X6, X3
	CMPQ DX, R8
	JB   gwTaps             // all three columns inside
	// lanes [lo, hi): lo = clamp(−ix0, 0, 4), hi = clamp(inW − ix0, 0, 3)
	MOVQ DX, AX
	NEGQ AX
	MOVQ $0, CX
	CMPQ AX, CX
	CMOVQLT CX, AX
	MOVQ $4, CX
	CMPQ AX, CX
	CMOVQGT CX, AX
	NEGQ AX
	VMOVDQU 64(R12)(AX*4), X3   // lanes ≥ lo
	MOVQ inW+48(FP), AX
	SUBQ DX, AX
	MOVQ $0, CX
	CMPQ AX, CX
	CMOVQLT CX, AX
	MOVQ $3, CX
	CMPQ AX, CX
	CMOVQGT CX, AX
	NEGQ AX
	VANDPS 32(R12)(AX*4), X3, X3    // … and < hi

gwTaps:
	VBROADCASTSS (DI), X5
	TESTQ $1, BX
	JZ    gwTaps1
	VMASKMOVPS (SI), X3, X4
	VMULPS X4, X5, X4
	VANDPS X3, X4, X4
	VADDPS X4, X0, X0

gwTaps1:
	TESTQ $2, BX
	JZ    gwTaps2
	VMASKMOVPS (SI)(R11*1), X3, X4
	VMULPS X4, X5, X4
	VANDPS X3, X4, X4
	VADDPS X4, X1, X1

gwTaps2:
	TESTQ $4, BX
	JZ    gwNext
	VMASKMOVPS (SI)(R11*2), X3, X4
	VMULPS X4, X5, X4
	VANDPS X3, X4, X4
	VADDPS X4, X2, X2

gwNext:
	ADDQ $4, DI
	ADDQ R10, SI
	ADDQ strideW+64(FP), DX
	DECQ R9
	JNZ  gwPos
	ADDQ strideH+56(FP), R13
	DECQ rowsLeft-8(SP)
	JNZ  gwRow
	MOVQ acc+0(FP), DI
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VZEROUPPER
	RET

// The aggregation step's two float64 sweeps (FoldScaled, SqDistLanes in
// vec.go). n is a positive multiple of 4 — the wrappers run the last n%4
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

// func vecFoldScaled(dst *float64, src *float32, w float64, n int)
TEXT ·vecFoldScaled(SB), NOSPLIT, $0-32
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

// func vecSqDist(a, b *float32, n int) float64
//
// Σ_j (float64(a[j]) − float64(b[j]))² in LANE order: sixteen chains (Y0–Y3)
// take every sixteenth element each, then fold pairwise. The one routine
// here whose lanes lie along a reduction: its terms are the serial chain's
// bits, its sum is not. SqDistLanes states who may call it.
TEXT ·vecSqDist(SB), NOSPLIT, $0-32
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
