package kernel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// packPanels builds an mr×kc A panel and kc×nr B panel (k-major) from dense
// matrices, matching the layout internal/packing produces.
func packPanels[T matrix.Scalar](a, b *matrix.Matrix[T], mr, nr int) (ap, bp []T) {
	kc := a.Cols
	ap = make([]T, mr*kc)
	bp = make([]T, kc*nr)
	for k := 0; k < kc; k++ {
		for i := 0; i < mr; i++ {
			ap[k*mr+i] = a.At(i, k)
		}
		for j := 0; j < nr; j++ {
			bp[k*nr+j] = b.At(k, j)
		}
	}
	return
}

func checkKernelAgainstNaive[T matrix.Scalar](t *testing.T, k Kernel[T], kc int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](k.MR, kc)
	b := matrix.New[T](kc, k.NR)
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, k.MR, k.NR)

	got := matrix.New[T](k.MR, k.NR)
	got.Randomize(rng)
	want := got.Clone()
	k.F(kc, ap, bp, got.Data, got.Stride)
	matrix.NaiveGemm(want, a, b)

	if !got.AlmostEqual(want, kc, tol) {
		t.Fatalf("%s kc=%d: max diff %g", k.Name, kc, got.MaxAbsDiff(want))
	}
}

func TestGenericKernelMatchesNaive(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {8, 8}, {5, 7}} {
		k := Generic[float64](shape[0], shape[1])
		for _, kc := range []int{1, 2, 17, 64} {
			checkKernelAgainstNaive(t, k, kc, int64(kc), 1e-12)
		}
	}
}

func TestUnrolledKernelsMatchGeneric(t *testing.T) {
	shapes := [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}}
	for _, s := range shapes {
		k := Best[float64](s[0], s[1])
		if strings.HasPrefix(k.Name, "generic") {
			t.Fatalf("expected a specialised kernel for %dx%d, got %s", s[0], s[1], k.Name)
		}
		for _, kc := range []int{1, 3, 32, 100} {
			checkKernelAgainstNaive(t, k, kc, int64(kc)*31, 1e-12)
		}
	}
}

func TestUnrolledKernelsFloat32(t *testing.T) {
	for _, s := range [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}} {
		k := Best[float32](s[0], s[1])
		checkKernelAgainstNaive(t, k, 64, 99, 1e-5)
	}
}

func TestBestFallsBackToGeneric(t *testing.T) {
	k := Best[float32](3, 5)
	if k.Name != "generic3x5" {
		t.Fatalf("expected generic fallback, got %s", k.Name)
	}
	checkKernelAgainstNaive(t, k, 20, 5, 1e-4)
}

func TestDefaultKernel(t *testing.T) {
	k := Default[float32]()
	if k.MR != 8 || k.NR != 8 {
		t.Fatalf("default kernel is %dx%d, want 8x8", k.MR, k.NR)
	}
}

func TestGenericInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generic[float32](0, 4)
}

func TestKernelZeroKc(t *testing.T) {
	// kc=0 must be a no-op (C unchanged), not a crash.
	k := Best[float64](8, 8)
	c := matrix.New[float64](8, 8)
	c.Fill(3)
	k.F(0, nil, nil, c.Data, c.Stride)
	for _, v := range c.Data {
		if v != 3 {
			t.Fatal("kc=0 modified C")
		}
	}
}

func TestKernelAccumulatesIntoC(t *testing.T) {
	k := Best[float64](4, 4)
	a := matrix.New[float64](4, 2)
	b := matrix.New[float64](2, 4)
	a.Fill(1)
	b.Fill(1)
	ap, bp := packPanels(a, b, 4, 4)
	c := matrix.New[float64](4, 4)
	c.Fill(10)
	k.F(2, ap, bp, c.Data, c.Stride)
	if c.At(0, 0) != 12 {
		t.Fatalf("C += contract broken: got %v want 12", c.At(0, 0))
	}
}

func TestKernelStridedC(t *testing.T) {
	// The kernel must honour ldc > nr (writing a tile inside a larger C).
	k := Best[float64](4, 4)
	big := matrix.New[float64](8, 10)
	tile := big.View(2, 3, 4, 4)
	a := matrix.New[float64](4, 5)
	b := matrix.New[float64](5, 4)
	rng := rand.New(rand.NewSource(3))
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, 4, 4)
	k.F(5, ap, bp, tile.Data, tile.Stride)

	want := matrix.New[float64](4, 4)
	matrix.NaiveGemm(want, a, b)
	if !tile.Clone().AlmostEqual(want, 5, 1e-12) {
		t.Fatal("strided C tile wrong")
	}
	if big.At(0, 0) != 0 || big.At(7, 9) != 0 {
		t.Fatal("kernel wrote outside its tile")
	}
}

func TestComputeTileFullAndEdge(t *testing.T) {
	k := Best[float64](8, 8)
	s := NewScratch[float64](8, 8)
	rng := rand.New(rand.NewSource(11))
	kc := 13
	a := matrix.New[float64](8, kc)
	b := matrix.New[float64](kc, 8)
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, 8, 8)

	// Full tile path.
	cFull := matrix.New[float64](8, 8)
	ComputeTile(k, kc, ap, bp, cFull, s)
	want := matrix.New[float64](8, 8)
	matrix.NaiveGemm(want, a, b)
	if !cFull.AlmostEqual(want, kc, 1e-12) {
		t.Fatal("full tile path wrong")
	}

	// Edge path: 5×3 valid region of an 8×8 tile. The packed panels carry
	// zero padding beyond the valid rows/cols, as packing produces.
	aEdge := a.Clone()
	bEdge := b.Clone()
	for i := 5; i < 8; i++ {
		for kk := 0; kk < kc; kk++ {
			aEdge.Set(i, kk, 0)
		}
	}
	for j := 3; j < 8; j++ {
		for kk := 0; kk < kc; kk++ {
			bEdge.Set(kk, j, 0)
		}
	}
	apE, bpE := packPanels(aEdge, bEdge, 8, 8)
	host := matrix.New[float64](6, 4)
	host.Fill(1)
	cEdge := host.View(1, 1, 5, 3)
	ComputeTile(k, kc, apE, bpE, cEdge, s)

	wantEdge := matrix.New[float64](5, 3)
	wantEdge.Fill(1)
	matrix.NaiveGemm(wantEdge, aEdge.View(0, 0, 5, kc), bEdge.View(0, 0, kc, 3))
	if !cEdge.Clone().AlmostEqual(wantEdge, kc, 1e-12) {
		t.Fatal("edge tile path wrong")
	}
	if host.At(0, 0) != 1 || host.At(0, 3) != 1 || host.At(5, 0) != 1 {
		t.Fatal("edge path wrote outside view")
	}
}

func TestKernelsAgreeQuick(t *testing.T) {
	// Property: every registered specialisation ≡ the generic kernel of the
	// same shape, over random kc and inputs.
	shapes := [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := shapes[rng.Intn(len(shapes))]
		mr, nr := s[0], s[1]
		kc := 1 + rng.Intn(40)
		a := matrix.New[float64](mr, kc)
		b := matrix.New[float64](kc, nr)
		a.Randomize(rng)
		b.Randomize(rng)
		ap, bp := packPanels(a, b, mr, nr)

		c1 := matrix.New[float64](mr, nr)
		c2 := matrix.New[float64](mr, nr)
		Best[float64](mr, nr).F(kc, ap, bp, c1.Data, c1.Stride)
		Generic[float64](mr, nr).F(kc, ap, bp, c2.Data, c2.Stride)
		return c1.AlmostEqual(c2, kc, 1e-13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// f64Tol8x8 is the per-k tolerance (matrix.AlmostEqual scales it by kc) for
// an f64 8×8 kernel against Generic. Both compute C_ij + Σ_k a_ik·b_kj in k
// order, one with FMAs and one with a separate multiply and add, so each is
// within the standard error bound |ΔC_ij| ≤ γ_(kc+1)·(|C_ij| + Σ_k |a_ik||b_kj|)
// of the exact value, with γ_n = n·u/(1−n·u) and u = 2⁻⁵³. The test operands
// lie in [−1, 1], so the sum is at most kc+1 and the two results differ by
// at most 2·(kc+1)²·u/(1−(kc+1)·u): 1.5e-11 at kc = 257 against the
// 2.6e-10 allowed, and within 1e-12·kc for every kc below about 4500.
const f64Tol8x8 = 1e-12

// runnable8x8F64 returns the f64 8×8 implementations this build carries and
// the host can run, plus the names of those it cannot.
func runnable8x8F64() (run []Kernel[float64], skipped []string) {
	for _, im := range f64Impls8x8 {
		if im.needs.coveredBy(hostCPU) {
			run = append(run, im.k)
		} else {
			skipped = append(skipped, im.k.Name)
		}
	}
	return run, skipped
}

func TestSelect8x8F64(t *testing.T) {
	cases := []struct {
		have      cpuFeatures
		asm, pure string
	}{
		{cpuFeatures{avx2FMA: true, avx512F: true}, "avx512-8x8", "unrolled8x8"},
		{cpuFeatures{avx512F: true}, "avx512-8x8", "unrolled8x8"},
		{cpuFeatures{avx2FMA: true}, "avx2-8x8", "unrolled8x8"},
		{cpuFeatures{}, "unrolled8x8", "unrolled8x8"},
	}
	asm := len(f64Impls8x8) > 1 // amd64 without -tags purego
	for _, c := range cases {
		want := c.pure
		if asm {
			want = c.asm
		}
		if got := select8x8F64(c.have).Name; got != want {
			t.Errorf("select8x8F64(%+v) = %s, want %s", c.have, got, want)
		}
	}
	if got, want := Best[float64](8, 8).Name, select8x8F64(hostCPU).Name; got != want {
		t.Errorf("Best[float64](8, 8) = %s, want the host's %s", got, want)
	}
	if got := Best[float32](8, 8).Name; got != "unrolled8x8" {
		t.Errorf("Best[float32](8, 8) = %s, want unrolled8x8", got)
	}
}

// TestF64Kernels8x8MatchGeneric runs every f64 8×8 implementation the host
// can run against Generic, writing into a C tile embedded in a NaN-filled
// buffer: the tile must match and every sentinel must stay NaN.
func TestF64Kernels8x8MatchGeneric(t *testing.T) {
	impls, skipped := runnable8x8F64()
	if len(skipped) > 0 {
		t.Logf("host cannot run %v", skipped)
	}
	ref := Generic[float64](8, 8)
	for _, k := range impls {
		for _, kc := range []int{0, 1, 2, 3, 7, 64, 257} {
			for _, ldc := range []int{8, 13, 64} {
				rng := rand.New(rand.NewSource(int64(kc*100 + ldc)))
				var ap, bp []float64 // nil panels at kc = 0
				if kc > 0 {
					ap, bp = make([]float64, 8*kc), make([]float64, 8*kc)
					for i := range ap {
						ap[i], bp[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
					}
				}
				// 3 rows of sentinel before and after the 8-row tile, and
				// columns 8..ldc-1 of each tile row.
				const pad = 3
				buf := make([]float64, (8+2*pad)*ldc)
				for i := range buf {
					buf[i] = math.NaN()
				}
				want := matrix.New[float64](8, 8)
				for i := 0; i < 8; i++ {
					for j := 0; j < 8; j++ {
						v := 2*rng.Float64() - 1
						buf[(pad+i)*ldc+j] = v
						want.Set(i, j, v)
					}
				}
				k.F(kc, ap, bp, buf[pad*ldc:], ldc)
				ref.F(kc, ap, bp, want.Data, want.Stride)

				got := matrix.New[float64](8, 8)
				for i := 0; i < 8; i++ {
					copy(got.Row(i), buf[(pad+i)*ldc:(pad+i)*ldc+8])
				}
				if !got.AlmostEqual(want, kc, f64Tol8x8) {
					t.Fatalf("%s kc=%d ldc=%d: max diff %g", k.Name, kc, ldc, got.MaxAbsDiff(want))
				}
				if kc == 0 && got.MaxAbsDiff(want) != 0 {
					t.Fatalf("%s kc=0 ldc=%d modified C", k.Name, ldc)
				}
				for p, v := range buf {
					r, c := p/ldc, p%ldc
					inTile := r >= pad && r < pad+8 && c < 8
					if !inTile && !math.IsNaN(v) {
						t.Fatalf("%s kc=%d ldc=%d: wrote sentinel at row %d col %d", k.Name, kc, ldc, r-pad, c)
					}
				}
			}
		}
	}
}

// TestF64AsmKernels8x8BitIdentical checks that the assembly kernels agree
// bit for bit: both accumulate from zero with one FMA per k in k order, so
// a result cannot depend on which SIMD path the host selected.
func TestF64AsmKernels8x8BitIdentical(t *testing.T) {
	impls, _ := runnable8x8F64()
	var asm []Kernel[float64]
	for _, k := range impls {
		if k.Name != pure8x8F64.Name {
			asm = append(asm, k)
		}
	}
	if len(asm) < 2 {
		t.Skipf("fewer than two assembly kernels run here: %d", len(asm))
	}
	rng := rand.New(rand.NewSource(7))
	for _, kc := range []int{1, 5, 129} {
		ap, bp := make([]float64, 8*kc), make([]float64, 8*kc)
		for i := range ap {
			ap[i], bp[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
		}
		c0 := make([]float64, 64)
		for i := range c0 {
			c0[i] = 2*rng.Float64() - 1
		}
		var first []float64
		for _, k := range asm {
			c := append([]float64(nil), c0...)
			k.F(kc, ap, bp, c, 8)
			if first == nil {
				first = c
				continue
			}
			for i := range c {
				if math.Float64bits(c[i]) != math.Float64bits(first[i]) {
					t.Fatalf("kc=%d: %s and %s differ at %d: %v vs %v", kc, asm[0].Name, k.Name, i, first[i], c[i])
				}
			}
		}
	}
}

// TestF64Kernels8x8ShortOperandsPanic checks that a short A panel, B panel
// or C panics in every implementation. For the assembly kernels the panic
// must come from the Go wrapper, before any C element is written.
func TestF64Kernels8x8ShortOperandsPanic(t *testing.T) {
	impls, _ := runnable8x8F64()
	const kc, ldc = 5, 11
	full := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	cases := []struct {
		name    string
		a, b, c []float64
	}{
		{"short A", full(8*kc - 1), full(8 * kc), full(7*ldc + 8)},
		{"short B", full(8 * kc), full(8*kc - 1), full(7*ldc + 8)},
		{"short C", full(8 * kc), full(8 * kc), full(7*ldc + 7)},
	}
	for _, k := range impls {
		for _, tc := range cases {
			c := append([]float64(nil), tc.c...)
			c = c[:len(c):len(c)] // the pure-Go kernel reslices C up to cap
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				k.F(kc, tc.a, tc.b, c, ldc)
				return false
			}()
			if !panicked {
				t.Fatalf("%s %s: no panic", k.Name, tc.name)
			}
			if k.Name == pure8x8F64.Name {
				continue // the pure-Go kernel may write rows before C runs out
			}
			for i, v := range c {
				if v != tc.c[i] {
					t.Fatalf("%s %s: C[%d] written before the panic", k.Name, tc.name, i)
				}
			}
		}
	}
}

// BenchmarkKernel8x8F64 times each f64 8×8 implementation the host can run
// on L1-resident panels (kc = 256).
func BenchmarkKernel8x8F64(b *testing.B) {
	impls, _ := runnable8x8F64()
	const kc = 256
	ap, bp := make([]float64, 8*kc), make([]float64, 8*kc)
	for i := range ap {
		ap[i], bp[i] = float64(i%7)*0.25, float64(i%5)*0.5
	}
	c := make([]float64, 64)
	for _, k := range impls {
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.F(kc, ap, bp, c, 8)
			}
			b.ReportMetric(2*64*kc*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
