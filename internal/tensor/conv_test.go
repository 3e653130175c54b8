package tensor

import (
	"testing"
	"testing/quick"

	"hpnn/internal/rng"
)

func TestConvGeomOutput(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-pad 3x3 should preserve size, got %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if g2.OutH() != 24 {
		t.Fatalf("valid 5x5 on 28 should give 24, got %d", g2.OutH())
	}
	g3 := ConvGeom{InC: 1, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}
	if g3.OutH() != 4 || g3.OutW() != 4 {
		t.Fatal("stride-2 2x2 pooling geometry wrong")
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: -1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Fatalf("geometry %d should be invalid: %+v", i, g)
		}
	}
	good := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

// convViaGEMM runs convolution through the im2col + matmul path.
func convViaGEMM(img, kernels *Tensor, g ConvGeom) *Tensor {
	outC := kernels.Shape[0]
	col := Im2Col(img, g)
	w := kernels.Reshape(outC, g.InC*g.KH*g.KW)
	out := MatMul(w, col)
	return out.Reshape(outC, g.OutH(), g.OutW())
}

func TestGEMMConvMatchesDirectProperty(t *testing.T) {
	f := func(seed uint64, cR, hR, kR, sR, pR, ocR uint8) bool {
		c := int(cR%3) + 1
		h := int(hR%10) + 4
		k := int(kR%3) + 1 // 1..3
		s := int(sR%2) + 1
		p := int(pR % 2)
		oc := int(ocR%4) + 1
		g := ConvGeom{InC: c, InH: h, InW: h, KH: k, KW: k, Stride: s, Pad: p}
		if g.Validate() != nil {
			return true
		}
		r := rng.New(seed)
		img := randTensor(r, c, h, h)
		kern := randTensor(r, oc, c, k, k)
		return Equal(convViaGEMM(img, kern, g), ConvDirect(img, kern, g), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1x3x3 image, 2x2 kernel, stride 1, no pad -> 4 columns of 4 rows.
	img := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	col := Im2Col(img, g)
	if col.Shape[0] != 4 || col.Shape[1] != 4 {
		t.Fatalf("im2col shape %v", col.Shape)
	}
	// Column 0 is the top-left window [1 2 4 5].
	want := []float64{1, 2, 4, 5}
	for r, v := range want {
		if col.At(r, 0) != v {
			t.Fatalf("col[%d,0] = %v, want %v", r, col.At(r, 0), v)
		}
	}
	// Column 3 is the bottom-right window [5 6 8 9].
	want = []float64{5, 6, 8, 9}
	for r, v := range want {
		if col.At(r, 3) != v {
			t.Fatalf("col[%d,3] = %v, want %v", r, col.At(r, 3), v)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := Im2Col(img, g)
	// Output is 2x2; column 0 (output pixel (0,0)) sees padding in its
	// first row/col of the window; its kernel-center element (ky=1,kx=1,
	// row 4) is img(0,0)=1.
	if col.At(4, 0) != 1 {
		t.Fatalf("center of window at (0,0) should be 1, got %v", col.At(4, 0))
	}
	if col.At(0, 0) != 0 {
		t.Fatal("padded position should be 0")
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, i.e. Col2Im
// is the exact adjoint of Im2Col — the property backprop relies on.
func TestCol2ImAdjoint(t *testing.T) {
	f := func(seed uint64, hR, kR, sR, pR uint8) bool {
		h := int(hR%8) + 4
		k := int(kR%3) + 1
		s := int(sR%2) + 1
		p := int(pR % 2)
		g := ConvGeom{InC: 2, InH: h, InW: h, KH: k, KW: k, Stride: s, Pad: p}
		if g.Validate() != nil {
			return true
		}
		r := rng.New(seed)
		x := randTensor(r, 2, h, h)
		colX := Im2Col(x, g)
		y := randTensor(r, colX.Shape[0], colX.Shape[1])
		// <Im2Col(x), y>
		lhs := 0.0
		for i := range colX.Data {
			lhs += colX.Data[i] * y.Data[i]
		}
		// <x, Col2Im(y)>
		back := Col2Im(y, g)
		rhs := 0.0
		for i := range x.Data {
			rhs += x.Data[i] * back.Data[i]
		}
		return absDiff(lhs, rhs) < 1e-8*(1+absDiff(lhs, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func absDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}

func TestConvDirectIdentityKernel(t *testing.T) {
	r := rng.New(3)
	img := randTensor(r, 1, 5, 5)
	kern := New(1, 1, 1, 1)
	kern.Data[0] = 1
	g := ConvGeom{InC: 1, InH: 5, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0}
	out := ConvDirect(img, kern, g)
	if !Equal(out, img, 0) {
		t.Fatal("1x1 identity kernel should reproduce the image")
	}
}
