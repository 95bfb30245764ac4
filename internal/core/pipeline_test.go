package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/pool"
	"repro/internal/schedule"
)

// TestPipelinedBitExactVsSync is the pipeline's oracle: for every compute
// dimension, schedule order, transpose combination and a table of odd edge
// shapes, the executor must agree with the naive reference C = αAB + βC₀
// within accumulation tolerance (the name dates from the removed
// synchronous executor; the bit-exact cross-path oracles are the resident,
// batch and engine tests).
func TestPipelinedBitExactVsSync(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 32, 64},  // exact multiples of the block
		{50, 23, 70},  // ragged everything
		{1, 1, 1},     // degenerate
		{47, 16, 49},  // ragged M/N, exact K
		{200, 8, 16},  // tall-skinny
		{8, 200, 16},  // deep
		{16, 8, 200},  // wide
		{33, 70, 129}, // several K runs and boundary reuses
	}
	trans := []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}}
	scales := []struct{ alpha, beta float64 }{{1, 1}, {2.5, 0}, {-1.25, 3}}
	seed := int64(1000)
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		for _, order := range []schedule.Order{OrderAuto, schedule.OuterN, schedule.OuterM} {
			cfg := smallConfig(3, dim)
			cfg.Order = order
			pipe, err := NewExecutor[float64](cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				for _, tc := range trans {
					sc := scales[int(seed)%len(scales)]
					seed++
					rng := rand.New(rand.NewSource(seed))
					la := matrix.New[float64](sh.m, sh.k)
					lb := matrix.New[float64](sh.k, sh.n)
					la.Randomize(rng)
					lb.Randomize(rng)
					a, b := la, lb
					if tc.ta {
						a = la.Transpose()
					}
					if tc.tb {
						b = lb.Transpose()
					}
					c0 := matrix.New[float64](sh.m, sh.n)
					c0.Randomize(rng)
					cPipe := c0.Clone()
					if _, err := pipe.GemmScaled(cPipe, a, b, tc.ta, tc.tb, sc.alpha, sc.beta); err != nil {
						t.Fatalf("pipe dim=%v order=%v %+v: %v", dim, order, sh, err)
					}
					// The reference semantics C = αAB + βC₀.
					want := c0.Clone()
					want.Scale(sc.beta)
					prod := matrix.New[float64](sh.m, sh.n)
					matrix.NaiveGemm(prod, la, lb)
					for i := 0; i < sh.m; i++ {
						for j := 0; j < sh.n; j++ {
							want.Add(i, j, sc.alpha*prod.At(i, j))
						}
					}
					if !cPipe.AlmostEqual(want, sh.k, 1e-11) {
						t.Fatalf("dim=%v order=%v shape=%+v ta=%v tb=%v: pipelined vs naive diff %g",
							dim, order, sh, tc.ta, tc.tb, cPipe.MaxAbsDiff(want))
					}
				}
			}
			pipe.Close()
		}
	}
}

// TestPipelinedReuseCounters checks the panel-reuse layer fires exactly
// where Algorithm 2 promises shared surfaces: B panels at M steps under
// OuterN, A panels at N steps under OuterM, and that reused panels are
// counted instead of repacked.
func TestPipelinedReuseCounters(t *testing.T) {
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(2, dim)
		cfg.Order = schedule.OuterN
		st := checkGemm[float64](t, cfg, 100, 70, 100, 91, 1e-12)
		if st.Grid.Blocks() < 4 {
			t.Fatalf("dim=%v grid too small to exercise reuse: %+v", dim, st.Grid)
		}
		if st.ReusedBElems == 0 {
			t.Errorf("dim=%v OuterN: no B reuse at M steps (packed=%d)", dim, st.PackedBElems)
		}
		cfg.Order = schedule.OuterM
		st = checkGemm[float64](t, cfg, 100, 70, 100, 92, 1e-12)
		if st.ReusedAElems == 0 {
			t.Errorf("dim=%v OuterM: no A reuse at N steps (packed=%d)", dim, st.PackedAElems)
		}
	}
}

// TestPipelinedPanelCache: with more slots than the ping-pong pair, a small
// grid's panels all stay resident, so a whole extra sweep reuses rather
// than repacks — strictly more reuse than the 2-slot ring on the same
// problem.
func TestPipelinedPanelCache(t *testing.T) {
	cfg := smallConfig(2, DimN)
	run := func(opts ...Option) Stats {
		e, err := NewExecutor[float64](cfg, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rng := rand.New(rand.NewSource(55))
		a := matrix.New[float64](64, 48)
		b := matrix.New[float64](48, 96)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float64](64, 96)
		st, err := e.Gemm(c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](64, 96)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, 48, 1e-12) {
			t.Fatalf("panel-cache GEMM wrong: %g", c.MaxAbsDiff(want))
		}
		return st
	}
	base := run()
	cached := run(WithPanelCache(16))
	if cached.ReusedAElems+cached.ReusedBElems <= base.ReusedAElems+base.ReusedBElems {
		t.Fatalf("16-slot cache reused %d+%d, 2-slot ring %d+%d",
			cached.ReusedAElems, cached.ReusedBElems, base.ReusedAElems, base.ReusedBElems)
	}
}

// TestConcurrentExecutorsSharedPool is the race-detector stress test: two
// groups of executors driving one shared pool from separate goroutines,
// the second group with a panel cache beyond the ping-pong pair, across all
// compute dimensions. Run under -race this exercises the async pack handles,
// slot rings and job multiplexing for data races.
func TestConcurrentExecutorsSharedPool(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*3*iters)
	for g := 0; g < 2; g++ {
		for _, dim := range []ComputeDim{DimN, DimM, DimK} {
			e, err := NewExecutor[float64](smallConfig(2, dim), p, WithPanelCache(2+6*g))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e *Executor[float64], seed int64) {
				defer wg.Done()
				defer e.Close()
				rng := rand.New(rand.NewSource(seed))
				for it := 0; it < iters; it++ {
					m, k, n := 20+rng.Intn(60), 1+rng.Intn(60), 20+rng.Intn(60)
					a := matrix.New[float64](m, k)
					b := matrix.New[float64](k, n)
					a.Randomize(rng)
					b.Randomize(rng)
					c := matrix.New[float64](m, n)
					if _, err := e.Gemm(c, a, b); err != nil {
						errs <- err
						return
					}
					want := matrix.New[float64](m, n)
					matrix.NaiveGemm(want, a, b)
					if !c.AlmostEqual(want, k, 1e-11) {
						t.Errorf("shared-pool gemm %dx%dx%d wrong by %g", m, k, n, c.MaxAbsDiff(want))
						return
					}
				}
			}(e, int64(100*g)+int64(dim))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedExecutorReusesBuffersAcrossCalls guards slot-key
// invalidation: the same executor run on different operands of identical
// shape must not serve stale panels from the previous call.
func TestPipelinedExecutorReusesBuffersAcrossCalls(t *testing.T) {
	e, err := NewExecutor[float64](smallConfig(2, DimN), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		a := matrix.New[float64](64, 32)
		b := matrix.New[float64](32, 64)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float64](64, 64)
		if _, err := e.Gemm(c, a, b); err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](64, 64)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, 32, 1e-12) {
			t.Fatalf("trial %d: stale packed panels leaked across calls (diff %g)",
				trial, c.MaxAbsDiff(want))
		}
	}
}

// TestSyncStatsUnchanged pins the packing accounting (the name dates from
// the removed synchronous executor): every element of A and B is either
// packed or served from an already-packed panel once per touching block,
// with lookahead packing and on a one-worker pool; WithoutPanelReuse packs
// every touch, as the synchronous executor did, with the same result.
func TestSyncStatsUnchanged(t *testing.T) {
	cfg := smallConfig(2, DimN) // block 32x16x32 over 64x32x64: 2x2x2 grid
	rng := rand.New(rand.NewSource(5))
	a := matrix.New[float64](64, 32)
	b := matrix.New[float64](32, 64)
	a.Randomize(rng)
	b.Randomize(rng)
	var want *matrix.Matrix[float64]
	for _, tc := range []struct {
		cores   int // one core: a one-worker pool, no lookahead
		noReuse bool
	}{{2, false}, {1, false}, {1, true}} {
		cfg.Cores = tc.cores
		var opts []Option
		if tc.noReuse {
			opts = append(opts, WithoutPanelReuse())
		}
		e, err := NewExecutor[float64](cfg, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c := matrix.New[float64](64, 64)
		st, err := e.Gemm(c, a, b)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		// A is touched once per block column, B once per block row.
		touchedA, touchedB := int64(st.Grid.Nb*64*32), int64(st.Grid.Mb*32*64)
		if st.PackedAElems+st.ReusedAElems != touchedA || st.PackedBElems+st.ReusedBElems != touchedB {
			t.Fatalf("%+v grid %+v: packed+reused A=%d+%d B=%d+%d, want %d and %d touched", tc, st.Grid,
				st.PackedAElems, st.ReusedAElems, st.PackedBElems, st.ReusedBElems, touchedA, touchedB)
		}
		if tc.noReuse != (st.ReusedAElems+st.ReusedBElems == 0) {
			t.Fatalf("%+v: reused A=%d B=%d", tc, st.ReusedAElems, st.ReusedBElems)
		}
		if st.UnpackCElems != 64*64 {
			t.Fatalf("%+v: unpacked %d C elements, want %d", tc, st.UnpackCElems, 64*64)
		}
		if tc.noReuse && !c.Equal(want) {
			t.Fatalf("%+v: result differs from the reusing one-worker run by %g", tc, c.MaxAbsDiff(want))
		}
		want = c
	}
}
