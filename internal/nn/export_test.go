package nn

import "heteroswitch/internal/vec"

// BNAct returns the activation a batch norm carries.
func BNAct(l *BatchNorm2D) vec.Act { return l.act }

// FrozenConvChunks returns the most chunks any frozen conv of net split its
// sample×group (depthwise: sample) loop into during the last Infer, 0 when
// no conv ran.
func FrozenConvChunks(net *Network) int { return convChunks(net.frozen.ops) }

func convChunks(ops []frozenOp) int {
	c := 0
	for _, op := range ops {
		switch o := op.(type) {
		case *frozenConv:
			c = max(c, o.chunks)
		case *frozenResidual:
			c = max(c, convChunks(o.body), convChunks(o.proj))
		case *frozenParallel:
			for _, b := range o.branches {
				c = max(c, convChunks(b))
			}
		}
	}
	return c
}

// FrozenProgram compiles net and reports what its program did with the
// layers it absorbs: folded counts the BatchNorm2Ds folded into a conv op,
// fused the activations fused into a conv or dense op, and wrapped lists every
// layer that runs as its own eval forward. A squeeze-excite block's
// internal layers are not counted.
func FrozenProgram(net *Network) (folded, fused int, wrapped []Layer) {
	var walk func(ops []frozenOp)
	absorb := func(bn *BatchNorm2D, act vec.Act) {
		if bn != nil {
			folded++
		}
		if act != vec.ActIdentity {
			fused++
		}
	}
	walk = func(ops []frozenOp) {
		for _, op := range ops {
			switch o := op.(type) {
			case *frozenConv:
				absorb(o.bn, o.act)
			case *frozenDense:
				absorb(nil, o.act)
			case *frozenResidual:
				walk(o.body)
				walk(o.proj)
			case *frozenParallel:
				for _, b := range o.branches {
					walk(b)
				}
			case *frozenWrap:
				wrapped = append(wrapped, o.l)
			}
		}
	}
	walk(net.Freeze().ops)
	return folded, fused, wrapped
}
