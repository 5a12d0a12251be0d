package nn_test

import (
	"fmt"
	"strings"
	"testing"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// TestWindowLargerThanPlaneIsRejected: a window that does not fit its
// (padded) plane has no output. (in + 2·pad − k)/stride truncates a negative
// numerator up to 0, so both output-size formulas must reject the geometry
// before dividing: the conv's with an error, the pools' with their own panic
// rather than an index out of range after reading one plane's window into the
// next. The ECG net's H = 1 planes at k3 p1 fit exactly and stay valid.
func TestWindowLargerThanPlaneIsRejected(t *testing.T) {
	for _, c := range []struct {
		inH, inW, k, stride, pad int
		outH, outW               int // 0: rejected
	}{
		{2, 3, 3, 2, 0, 0, 0}, // truncated to a 1×1 output before the fix
		{3, 2, 3, 2, 0, 0, 0},
		{2, 2, 5, 2, 1, 0, 0},
		{3, 3, 3, 2, 0, 1, 1},
		{1, 64, 3, 2, 1, 1, 32}, // the ECG net's first conv
		{1, 1, 3, 1, 1, 1, 1},
	} {
		name := fmt.Sprintf("conv %dx%d k%d s%d p%d", c.inH, c.inW, c.k, c.stride, c.pad)
		d, err := tensor.NewConvDims(1, c.inH, c.inW, c.k, c.k, c.stride, c.pad)
		switch {
		case c.outH == 0 && err == nil:
			t.Errorf("%s: accepted with output %dx%d", name, d.OutH, d.OutW)
		case c.outH != 0 && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.outH != 0 && (d.OutH != c.outH || d.OutW != c.outW):
			t.Errorf("%s: output %dx%d, want %dx%d", name, d.OutH, d.OutW, c.outH, c.outW)
		}
	}

	for _, c := range []struct {
		h, w, k, stride int
		outH, outW      int // 0: rejected
	}{
		{2, 2, 3, 2, 0, 0}, // read plane 0's window into plane 1 before the fix
		{3, 2, 3, 2, 0, 0},
		{2, 2, 2, 2, 1, 1},
		{3, 5, 3, 2, 1, 2},
	} {
		for _, frozen := range []bool{false, true} {
			name := fmt.Sprintf("max pool k%d s%d on %dx%d frozen=%v", c.k, c.stride, c.h, c.w, frozen)
			out, msg := maxPool(frozen, c.k, c.stride, tensor.New(1, 2, c.h, c.w))
			switch {
			case c.outH == 0 && !strings.Contains(msg, fmt.Sprintf("MaxPool2D k%d s%d on %dx%d", c.k, c.stride, c.h, c.w)):
				t.Errorf("%s: recovered %q, want the layer's own panic", name, msg)
			case c.outH != 0 && msg != "":
				t.Errorf("%s: %s", name, msg)
			case c.outH != 0 && (out.Dim(2) != c.outH || out.Dim(3) != c.outW):
				t.Errorf("%s: output %v, want %dx%d", name, out.Shape(), c.outH, c.outW)
			}
		}
	}
}

// maxPool runs one max pool on x — the layer or its frozen op — and returns
// its output or the message it panicked with.
func maxPool(frozen bool, k, stride int, x *tensor.Tensor) (out *tensor.Tensor, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	net := nn.NewNetwork(nn.NewMaxPool2D(k, stride))
	if frozen {
		return net.Freeze().Infer(x), ""
	}
	return net.Forward(x, false), ""
}
