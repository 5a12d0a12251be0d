//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of this package's training sweeps, under the same rules as
// internal/tensor/vec_amd64.s: lanes lie across independent targets — the
// elements of an elementwise sweep, eight channels of a batch-norm reduction —
// the arithmetic is the Go loop's operation for operation (separate VMULPS /
// VADDPS / VSUBPS / VDIVPS, VMULPD / VADDPD in the float64 sums, never an
// FMA, compares as ordered-quiet predicates feeding blends so NaN and −0 take
// the Go branches), and every routine ends in VZEROUPPER. The Go wrappers in
// vec.go validate lengths; rows, n ≥ 1 is a precondition.

// nnVecMask: eight all-ones lanes then eight zero lanes; the mask of the
// first r lanes starts at lane 8-r.
DATA nnVecMask<>+0(SB)/8, $0xffffffffffffffff
DATA nnVecMask<>+8(SB)/8, $0xffffffffffffffff
DATA nnVecMask<>+16(SB)/8, $0xffffffffffffffff
DATA nnVecMask<>+24(SB)/8, $0xffffffffffffffff
DATA nnVecMask<>+32(SB)/8, $0
DATA nnVecMask<>+40(SB)/8, $0
DATA nnVecMask<>+48(SB)/8, $0
DATA nnVecMask<>+56(SB)/8, $0
GLOBL nnVecMask<>(SB), RODATA|NOPTR, $64

// The hard-sigmoid constants 3, 6, 1, −3 as float32 bits.
DATA nnVecConst<>+0(SB)/4, $0x40400000
DATA nnVecConst<>+4(SB)/4, $0x40c00000
DATA nnVecConst<>+8(SB)/4, $0x3f800000
DATA nnVecConst<>+12(SB)/4, $0xc0400000
GLOBL nnVecConst<>(SB), RODATA|NOPTR, $16

// TAILMASK loads the mask of the first n%8 lanes into Y9 (n in reg).
#define TAILMASK(reg, tmp) \
	MOVQ reg, tmp; \
	ANDQ $7, tmp; \
	NEGQ tmp; \
	LEAQ nnVecMask<>(SB), reg; \
	VMOVDQU 32(reg)(tmp*4), Y9

// HSCONST loads 3, 6, 1, 0 into Y12–Y15.
#define HSCONST \
	VBROADCASTSS nnVecConst<>+0(SB), Y12; \
	VBROADCASTSS nnVecConst<>+4(SB), Y13; \
	VBROADCASTSS nnVecConst<>+8(SB), Y14; \
	VXORPS Y15, Y15, Y15

// HARDSIG leaves hardSigmoid(Y0) in Y1: s = (v+3)/6; s < 0 → 0; s > 1 → 1.
// Clobbers Y2, Y3.
#define HARDSIG \
	VADDPS Y12, Y0, Y1; \
	VDIVPS Y13, Y1, Y1; \
	VCMPPS $0x11, Y15, Y1, Y2; \
	VCMPPS $0x1e, Y14, Y1, Y3; \
	VBLENDVPS Y2, Y15, Y1, Y1; \
	VBLENDVPS Y3, Y14, Y1, Y1

// HSWGRAD turns v = Y0, dy = Y5 into dy·(hs(v) + [−3 < v < 3]·v/6) in Y5.
// Y11 holds −3. Clobbers Y1–Y4.
#define HSWGRAD \
	HARDSIG; \
	VCMPPS $0x1e, Y11, Y0, Y2; \
	VCMPPS $0x11, Y12, Y0, Y3; \
	VANDPS Y3, Y2, Y2; \
	VDIVPS Y13, Y0, Y4; \
	VADDPS Y4, Y1, Y4; \
	VBLENDVPS Y2, Y4, Y1, Y1; \
	VMULPS Y1, Y5, Y5

// func vecHardSwish(y, x *float32, n int)
//
// y[i] = x[i] · hardSigmoid(x[i])
TEXT ·vecHardSwish(SB), NOSPLIT, $0-24
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	HSCONST
	XORQ AX, AX

hswBlk:
	CMPQ BX, $8
	JLT  hswTail
	VMOVUPS (SI)(AX*1), Y0
	HARDSIG
	VMULPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $8, BX
	JMP  hswBlk

hswTail:
	TESTQ BX, BX
	JZ    hswDone
	TAILMASK(BX, CX)
	VMASKMOVPS (SI)(AX*1), Y9, Y0
	HARDSIG
	VMULPS Y1, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

hswDone:
	VZEROUPPER
	RET

// func vecHardSwishGrad(dx, dy, x *float32, n int)
//
// dx[i] = dy[i] · (hardSigmoid(x[i]) + x[i]/6 inside (−3, 3))
TEXT ·vecHardSwishGrad(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), BX
	HSCONST
	VBROADCASTSS nnVecConst<>+12(SB), Y11
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

// func vecBiasAct(y *float32, rows, n int, bias *float32, hswish bool)
//
// y[r·n + j] = act(y[r·n + j] + bias[r]), act the identity or hard-swish:
// the conv bias add of training and the frozen conv epilogue.
TEXT ·vecBiasAct(SB), NOSPLIT, $0-33
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
	HARDSIG
	VMULPS Y1, Y0, Y0

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
	HARDSIG
	VMULPS Y1, Y0, Y0

baStoreTail:
	VMASKMOVPS Y0, Y9, (DI)(AX*1)

baNext:
	ADDQ R11, DI
	ADDQ $4, SI
	DECQ R13
	JNZ  baRow
	VZEROUPPER
	RET

// func vecBNNormalize(out, xhat, x *float32, stride, rows, n int, mean, inv, gamma, beta float32)
//
// For r < rows, j < n at offset r·stride + j (one channel across the batch):
// xhat = (x − mean)·inv; out = g·xhat + b.
TEXT ·vecBNNormalize(SB), NOSPLIT, $0-64
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

// func vecBNGradX(dx, dy, xhat *float32, stride, rows, n int, gamma, scale, m, sDyG, sDyXh float32)
TEXT ·vecBNGradX(SB), NOSPLIT, $0-68
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
	LEAQ nnVecMask<>(SB), BX; \
	NEGQ CX; \
	VMOVDQU 32(BX)(CX*4), m; \
	NEGQ CX

// func vecBNSumSq(sum, dot *float64, a *float32, stride, rows, n int)
//
// sum[c] = Σ a, dot[c] = Σ a·a over rows samples of n elements for the eight
// channels c·n into a: the training forward's (Σx, Σx²).
TEXT ·vecBNSumSq(SB), NOSPLIT, $0-48
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

// func vecBNSumDot(sum, dot *float64, a, b *float32, stride, rows, n int)
//
// sum[c] = Σ a, dot[c] = Σ a·b over the same layout: the backward's
// (Σdy, Σdy·x̂).
TEXT ·vecBNSumDot(SB), NOSPLIT, $0-56
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
