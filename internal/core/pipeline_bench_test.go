package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// benchGemm measures one executor configuration on a fixed shape and
// reports GFLOP/s plus the packing/reuse accounting of the last run, so
// `go test -bench Gemm` compares the panel-cache settings.
func benchGemm(b *testing.B, cfg Config, m, k, n int, opts ...Option) {
	e, err := NewExecutor[float32](cfg, nil, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	a := matrix.New[float32](m, k)
	bb := matrix.New[float32](k, n)
	a.Randomize(rng)
	bb.Randomize(rng)
	c := matrix.New[float32](m, n)
	var st Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, err = e.Gemm(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	b.ReportMetric(float64(st.PackedAElems+st.PackedBElems), "packed-elems")
	b.ReportMetric(float64(st.ReusedAElems+st.ReusedBElems), "reused-elems")
}

// The skewed small-M shape class from the paper's Fig. 11 discussion:
// M far smaller than K and N, so packing is a large share of the work
// (Section 5.2.1) and the K-first schedule revisits the small set of A
// panels on every N step. This is where panel reuse pays: the pipelined
// executor with a panel cache packs each A panel once instead of once per
// visiting block.
const (
	skewM = 32
	skewK = 1024
	skewN = 512
)

func skewedConfig() Config {
	// A deliberately pack-heavy geometry: narrow mc keeps the compute per
	// block small relative to the panel area the block must pack.
	return Config{Cores: 1, MC: 8, KC: 512, Alpha: 1, MR: 8, NR: 8, Dim: DimN, Order: OrderAuto}
}

func BenchmarkGemmPipelinedSkewedSmallM(b *testing.B) {
	benchGemm(b, skewedConfig(), skewM, skewK, skewN)
}

func BenchmarkGemmPipelinedCacheSkewedSmallM(b *testing.B) {
	benchGemm(b, skewedConfig(), skewM, skewK, skewN, WithPanelCache(16))
}

// Square control shape: compute-bound, so the pipeline has little packing
// to hide and must not cost throughput where it cannot win any.
func squareConfig() Config {
	return Config{Cores: 1, MC: 64, KC: 128, Alpha: 1, MR: 8, NR: 8, Dim: DimN, Order: OrderAuto}
}

func BenchmarkGemmPipelinedSquare(b *testing.B) {
	benchGemm(b, squareConfig(), 384, 384, 384)
}

// TestBenchShapesCorrect keeps the benchmark configurations honest: both
// bench configs must produce correct results under every executor option
// used above.
func TestBenchShapesCorrect(t *testing.T) {
	cases := []struct {
		cfg     Config
		m, k, n int
		opts    []Option
	}{
		{skewedConfig(), skewM, skewK, skewN, nil},
		{skewedConfig(), skewM, skewK, skewN, []Option{WithPanelCache(16)}},
		{squareConfig(), 384, 384, 384, nil},
	}
	for i, tc := range cases {
		e, err := NewExecutor[float64](tc.cfg, nil, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		a := matrix.New[float64](tc.m, tc.k)
		bb := matrix.New[float64](tc.k, tc.n)
		a.Randomize(rng)
		bb.Randomize(rng)
		c := matrix.New[float64](tc.m, tc.n)
		if _, err := e.Gemm(c, a, bb); err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](tc.m, tc.n)
		matrix.NaiveGemm(want, a, bb)
		if !c.AlmostEqual(want, tc.k, 1e-10) {
			t.Errorf("case %d (%s): wrong result, diff %g", i,
				fmt.Sprintf("%dx%dx%d", tc.m, tc.k, tc.n), c.MaxAbsDiff(want))
		}
		e.Close()
	}
}
