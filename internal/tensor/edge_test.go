package tensor

import (
	"bytes"
	"strings"
	"testing"
)

func TestStringFormat(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2, 5)
	s := x.String()
	if !strings.Contains(s, "[2 5]") {
		t.Fatalf("String() = %q", s)
	}
}

func TestFullAndOnes(t *testing.T) {
	x := Full(3.5, 2, 2)
	for _, v := range x.Data() {
		if v != 3.5 {
			t.Fatal("Full wrong")
		}
	}
	for _, v := range Ones(3).Data() {
		if v != 1 {
			t.Fatal("Ones wrong")
		}
	}
}

func TestApply(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3}, 3)
	x.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if x.At(1) != 0 || x.At(0) != 1 {
		t.Fatalf("Apply = %v", x.Data())
	}
}

// Failure injection: corrupted serialized streams must error, not panic.
func TestReadFromCorruptedStreams(t *testing.T) {
	good := New(2, 3)
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"truncated-header": full[:2],
		"truncated-shape":  full[:6],
		"truncated-data":   full[:len(full)-5],
	}
	for name, data := range cases {
		var x Tensor
		if _, err := x.ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	// Implausible dimension count must be rejected before allocation.
	bogus := make([]byte, 4)
	bogus[0] = 0xff
	bogus[1] = 0xff
	var x Tensor
	if _, err := x.ReadFrom(bytes.NewReader(bogus)); err == nil {
		t.Error("implausible ndim accepted")
	}

	// Dimensions whose product overflows must be rejected, not multiplied
	// into a makeslice panic.
	huge := []byte{2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if _, err := x.ReadFrom(bytes.NewReader(huge)); err == nil {
		t.Error("overflowing shape accepted")
	}
}

// A tensor longer than one read chunk decodes across chunk boundaries into
// exactly the written values, with no capacity beyond its size.
func TestReadFromMultiChunkRoundtrip(t *testing.T) {
	for _, n := range []int{readChunk - 1, readChunk, readChunk + 1, 5*readChunk + 3} {
		want := New(n)
		for i := range want.Data() {
			want.Data()[i] = float32(i%251) - 125.5
		}
		var buf bytes.Buffer
		if _, err := want.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var got Tensor
		read, err := got.ReadFrom(&buf)
		if err != nil || read != int64(8+4*n) {
			t.Fatalf("n=%d: read %d bytes, err %v", n, read, err)
		}
		if !got.AllClose(want, 0) || cap(got.Data()) != n {
			t.Fatalf("n=%d: roundtrip differs (cap %d)", n, cap(got.Data()))
		}
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { New(-1) },
		func() { FromSlice([]float32{1}, 2) },
		func() { New(2).At(3) },
		func() { New(2, 2).At(0) },
		func() { New(2).ReshapeInto(nil, 3) },
		func() { New(4).ReshapeInto(nil, -1, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner dim mismatch")
		}
	}()
	MatMulInto(New(2, 5), a, b)
}
