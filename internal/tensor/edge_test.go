package tensor

import (
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
