package nn

// FrozenConvChunks returns the most chunks any frozen conv of net split its
// sample×group loop into during the last Infer, 0 when no conv ran.
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
