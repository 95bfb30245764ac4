package main

import (
	"math"
	"unsafe"

	"repro/internal/convnet"
	"repro/internal/matrix"
)

// unitRoundoff is u = 2^-p for the scalar type: 2^-24 for float32, 2^-53
// for float64.
func unitRoundoff[T matrix.Scalar]() float64 {
	if unsafe.Sizeof(*new(T)) == 4 {
		return 0x1p-24
	}
	return 0x1p-53
}

// gamma is the classic k·u error constant γ_k = k·u / (1 − k·u): a length-k
// dot product computed in any order differs from the exact one by at most
// γ_k · Σ|a_i·b_i|.
func gamma(k int, u float64) float64 { return float64(k) * u / (1 - float64(k)*u) }

// gemmTolerance returns, per row i of C = A×B, the largest admissible
// difference between the engine's result and matrix.NaiveGemm's: each is
// within γ_k·Σ_k|a_ik||b_kj| of the exact product, and that sum is at most
// (Σ_k|a_ik|)·max|B|.
func gemmTolerance[T matrix.Scalar](a, b *matrix.Matrix[T]) []float64 {
	var bmax float64
	for i := 0; i < b.Rows; i++ {
		for _, v := range b.Row(i) {
			bmax = math.Max(bmax, math.Abs(float64(v)))
		}
	}
	g := 2 * gamma(a.Cols, unitRoundoff[T]())
	tol := make([]float64, a.Rows)
	for i := range tol {
		var s float64
		for _, v := range a.Row(i) {
			s += math.Abs(float64(v))
		}
		tol[i] = g * s * bmax
	}
	return tol
}

// naiveReference computes A×B with matrix.NaiveGemm.
func naiveReference[T matrix.Scalar](a, b *matrix.Matrix[T]) *matrix.Matrix[T] {
	ref := matrix.New[T](a.Rows, b.Cols)
	matrix.NaiveGemm(ref, a, b)
	return ref
}

// withinRows reports whether every element of got is within its row's
// tolerance of want. NaN never matches.
func withinRows[T matrix.Scalar](got, want *matrix.Matrix[T], tol []float64) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for i := 0; i < got.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range g {
			if !(math.Abs(float64(g[j])-float64(w[j])) <= tol[i]) {
				return false
			}
		}
	}
	return true
}

// poison fills m with NaN so a call that does not write its output (β = 0
// must overwrite C without reading it) cannot pass the oracle with stale data.
func poison[T matrix.Scalar](m *matrix.Matrix[T]) { m.Fill(T(math.NaN())) }

// dnnOracle is the reference for one image of the dnn-batch network: the
// DirectConv → ReLU → MaxPool2x2 chain run in float64, plus an elementwise
// bound on how far the float32 network may stray from it.
//
// The bound follows the computation layer by layer. A float32 conv output
// differs from the float64 reference by the propagated input error |W|⊛E
// plus its own rounding, at most γ_K(u32)·|W|⊛(|x|+E) for K = InC·KH·KW;
// the float64 reference adds γ_K(u64)·|W|⊛|x|. ReLU and 2×2 max pooling are
// 1-Lipschitz elementwise, so they pass the bound through unchanged (pooling
// takes the window maximum of it).
type dnnOracle struct {
	want, bound *convnet.Tensor[float64]
}

func newDNNOracle(layers []*convnet.Layer[float32], pools []bool, img *convnet.Tensor[float32]) (*dnnOracle, error) {
	x := convertTensor(img, func(v float32) float64 { return float64(v) })
	e := convnet.NewTensor[float64](img.C, img.H, img.W)
	for li, l := range layers {
		w := matrix.New[float64](l.Weights.Rows, l.Weights.Cols)
		wabs := matrix.New[float64](l.Weights.Rows, l.Weights.Cols)
		for i := range w.Data {
			w.Data[i] = float64(l.Weights.Data[i])
			wabs.Data[i] = math.Abs(w.Data[i])
		}
		exact := &convnet.Layer[float64]{Name: l.Name, Spec: l.Spec, Weights: w, ReLU: l.ReLU}
		mag := &convnet.Layer[float64]{Name: l.Name, Spec: l.Spec, Weights: wabs}
		y, err := convnet.DirectConv(x, exact)
		if err != nil {
			return nil, err
		}
		prop, err := convnet.DirectConv(e, mag)
		if err != nil {
			return nil, err
		}
		xe := convnet.NewTensor[float64](x.C, x.H, x.W)
		xa := convnet.NewTensor[float64](x.C, x.H, x.W)
		for i := range xe.Data {
			xa.Data[i] = math.Abs(x.Data[i])
			xe.Data[i] = xa.Data[i] + e.Data[i]
		}
		round32, err := convnet.DirectConv(xe, mag)
		if err != nil {
			return nil, err
		}
		round64, err := convnet.DirectConv(xa, mag)
		if err != nil {
			return nil, err
		}
		k := l.Spec.InC * l.Spec.KH * l.Spec.KW
		g32, g64 := gamma(k, 0x1p-24), gamma(k, 0x1p-53)
		for i := range prop.Data {
			prop.Data[i] += g32*round32.Data[i] + g64*round64.Data[i]
		}
		if pools[li] {
			y, prop = convnet.MaxPool2x2(y), convnet.MaxPool2x2(prop)
		}
		x, e = y, prop
	}
	return &dnnOracle{want: x, bound: e}, nil
}

func (o *dnnOracle) matches(got *convnet.Tensor[float32]) bool {
	if got.C != o.want.C || got.H != o.want.H || got.W != o.want.W {
		return false
	}
	for i, v := range got.Data {
		if !(math.Abs(float64(v)-o.want.Data[i]) <= o.bound.Data[i]) {
			return false
		}
	}
	return true
}

func convertTensor[S, D matrix.Scalar](t *convnet.Tensor[S], f func(S) D) *convnet.Tensor[D] {
	out := convnet.NewTensor[D](t.C, t.H, t.W)
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}
