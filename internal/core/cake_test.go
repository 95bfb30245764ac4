package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/schedule"
)

func smallConfig(p int, dim ComputeDim) Config {
	return Config{Cores: p, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, Dim: dim, Order: OrderAuto}
}

func checkGemm[T matrix.Scalar](t *testing.T, cfg Config, m, k, n int, seed int64, tol float64) Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](m, k)
	b := matrix.New[T](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[T](m, n)
	c.Randomize(rng)
	want := c.Clone()

	st, err := Gemm(c, a, b, cfg)
	if err != nil {
		t.Fatalf("Gemm(%v, %dx%dx%d): %v", cfg, m, k, n, err)
	}
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, k, tol) {
		t.Fatalf("cfg=%v dims=%dx%dx%d: max diff %g", cfg, m, k, n, c.MaxAbsDiff(want))
	}
	return st
}

func TestGemmExactBlocks(t *testing.T) {
	// M,K,N exact multiples of the block dims.
	cfg := smallConfig(2, DimN) // block 32x16x32
	checkGemm[float64](t, cfg, 64, 32, 64, 1, 1e-12)
}

func TestGemmRaggedEverything(t *testing.T) {
	cfg := smallConfig(3, DimN) // block 48x16x48
	checkGemm[float64](t, cfg, 50, 23, 70, 2, 1e-12)
	checkGemm[float64](t, cfg, 1, 1, 1, 3, 1e-12)
	checkGemm[float64](t, cfg, 47, 16, 49, 4, 1e-12)
}

func TestGemmSmallerThanOneBlock(t *testing.T) {
	cfg := smallConfig(4, DimN) // block 64x16x64 — problem fits in one block
	checkGemm[float64](t, cfg, 10, 5, 12, 5, 1e-12)
}

func TestGemmSkewedShapes(t *testing.T) {
	cfg := smallConfig(2, DimN)
	checkGemm[float64](t, cfg, 200, 8, 16, 6, 1e-12)  // tall-skinny
	checkGemm[float64](t, cfg, 8, 200, 16, 7, 1e-12)  // deep
	checkGemm[float64](t, cfg, 16, 8, 200, 8, 1e-12)  // wide
	checkGemm[float64](t, cfg, 128, 1, 128, 9, 1e-12) // rank-1
}

func TestGemmAlphaGreaterThanOne(t *testing.T) {
	cfg := smallConfig(2, DimN)
	cfg.Alpha = 3 // block 32x16x96
	checkGemm[float64](t, cfg, 70, 40, 200, 10, 1e-12)
}

func TestGemmDimM(t *testing.T) {
	cfg := smallConfig(2, DimM)
	checkGemm[float64](t, cfg, 64, 32, 64, 11, 1e-12)
	checkGemm[float64](t, cfg, 50, 23, 70, 12, 1e-12)
	cfg.Alpha = 2
	checkGemm[float64](t, cfg, 90, 33, 40, 13, 1e-12)
}

func TestGemmDimK(t *testing.T) {
	cfg := smallConfig(2, DimK)
	checkGemm[float64](t, cfg, 40, 64, 40, 14, 1e-12) // K exact multiple of p·kc
	checkGemm[float64](t, cfg, 40, 70, 40, 15, 1e-12) // ragged K
	checkGemm[float64](t, cfg, 17, 100, 23, 16, 1e-12)
}

func TestGemmFloat32(t *testing.T) {
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(2, dim)
		checkGemm[float32](t, cfg, 60, 45, 55, 17, 2e-5)
	}
}

func TestGemmForcedOrders(t *testing.T) {
	for _, o := range []schedule.Order{schedule.OuterN, schedule.OuterM} {
		cfg := smallConfig(2, DimN)
		cfg.Order = o
		checkGemm[float64](t, cfg, 80, 40, 50, 18, 1e-12)
	}
}

func TestGemmSingleCore(t *testing.T) {
	cfg := smallConfig(1, DimN)
	checkGemm[float64](t, cfg, 33, 29, 41, 19, 1e-12)
}

func TestGemmManyCoresFewStrips(t *testing.T) {
	// More cores than strips: some cores idle, result still right.
	cfg := smallConfig(8, DimN) // block 128x16x128
	checkGemm[float64](t, cfg, 20, 40, 20, 20, 1e-12)
}

func TestGemmNonSquareTile(t *testing.T) {
	cfg := Config{Cores: 2, MC: 16, KC: 10, Alpha: 1, MR: 4, NR: 8, Dim: DimN, Order: OrderAuto}
	checkGemm[float64](t, cfg, 45, 31, 52, 21, 1e-12)
}

func TestGemmAccumulatesIntoC(t *testing.T) {
	a := matrix.New[float64](8, 8)
	b := matrix.New[float64](8, 8)
	a.Fill(1)
	b.Fill(1)
	c := matrix.New[float64](8, 8)
	c.Fill(5)
	if _, err := Gemm(c, a, b, smallConfig(2, DimN)); err != nil {
		t.Fatal(err)
	}
	if c.At(3, 3) != 13 {
		t.Fatalf("C += A×B broken: got %v want 13", c.At(3, 3))
	}
}

func TestGemmStats(t *testing.T) {
	cfg := smallConfig(2, DimN) // block 32x16x32
	st := checkGemm[float64](t, cfg, 64, 32, 64, 22, 1e-12)
	if st.Grid != (schedule.Dims{Mb: 2, Nb: 2, Kb: 2}) {
		t.Fatalf("grid %+v", st.Grid)
	}
	if st.Blocks != 8 {
		t.Fatalf("blocks %d", st.Blocks)
	}
	// Every element of A and B is touched once per block that needs it
	// (A by Nb block columns, B by Mb block rows), but the pipeline serves
	// part of that from already-packed panels at snake run boundaries.
	if st.PackedAElems+st.ReusedAElems != 2*64*32 || st.PackedBElems+st.ReusedBElems != 2*32*64 {
		t.Fatalf("packed+reused A=%d+%d B=%d+%d",
			st.PackedAElems, st.ReusedAElems, st.PackedBElems, st.ReusedBElems)
	}
	// The 2x2x2 snake revisits B panels at every M step and A panels on the
	// reversed sweeps: the reuse layer must catch some of each.
	if st.ReusedAElems == 0 || st.ReusedBElems == 0 {
		t.Fatalf("no panel reuse on a revisiting schedule: A=%d B=%d",
			st.ReusedAElems, st.ReusedBElems)
	}
	// C unpacked exactly once per element.
	if st.UnpackCElems != 64*64 {
		t.Fatalf("unpack %d", st.UnpackCElems)
	}
	if st.Order != schedule.OuterN {
		t.Fatalf("order %v", st.Order)
	}
}

func TestExecutorReuseAcrossCalls(t *testing.T) {
	e, err := NewExecutor[float64](smallConfig(2, DimN), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		m, k, n := 10+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(60)
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		c := matrix.New[float64](m, n)
		a.Randomize(rng)
		b.Randomize(rng)
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)
		if _, err := e.Gemm(c, a, b); err != nil {
			t.Fatal(err)
		}
		if !c.AlmostEqual(want, k, 1e-12) {
			t.Fatalf("trial %d (%dx%dx%d) wrong", trial, m, k, n)
		}
	}
}

func TestExecutorSharedPool(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	e, err := NewExecutor[float64](smallConfig(2, DimN), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Close() // must not close the shared pool
	e2, err := NewExecutor[float64](smallConfig(4, DimN), p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a := matrix.New[float64](32, 32)
	b := matrix.New[float64](32, 32)
	c := matrix.New[float64](32, 32)
	a.Fill(1)
	b.Fill(1)
	if _, err := e2.Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 32 {
		t.Fatal("shared-pool GEMM wrong")
	}
}

func TestExecutorPoolTooSmall(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	if _, err := NewExecutor[float64](smallConfig(4, DimN), p); err == nil {
		t.Fatal("undersized pool accepted")
	}
}

func TestGemmQuickAllDims(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Cores: 1 + rng.Intn(4),
			MC:    8 * (1 + rng.Intn(3)),
			KC:    1 + rng.Intn(24),
			Alpha: 1 + 2*rng.Float64(),
			MR:    8, NR: 8,
			Dim:   ComputeDim(rng.Intn(3)),
			Order: OrderAuto,
		}
		m, k, n := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(90)
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		c := matrix.New[float64](m, n)
		a.Randomize(rng)
		b.Randomize(rng)
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)
		if _, err := Gemm(c, a, b, cfg); err != nil {
			t.Logf("cfg %v: %v", cfg, err)
			return false
		}
		return c.AlmostEqual(want, k, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(2, DimN)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.MC = 4 },  // < MR
		func(c *Config) { c.MC = 20 }, // not multiple of MR
		func(c *Config) { c.KC = 0 },
		func(c *Config) { c.Alpha = 0.5 },
		func(c *Config) { c.MR = 0 },
		func(c *Config) { c.Order = 7 },
		func(c *Config) { c.Dim = 9 },
	}
	for i, mut := range cases {
		c := good
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
	// DimM requires mc % nr == 0.
	c := Config{Cores: 1, MC: 12, KC: 4, Alpha: 1, MR: 4, NR: 8, Dim: DimM, Order: OrderAuto}
	if c.Validate() == nil {
		t.Fatal("DimM with mc%nr!=0 accepted")
	}
}

func TestConfigBlockDims(t *testing.T) {
	c := Config{Cores: 3, MC: 16, KC: 10, Alpha: 2, MR: 8, NR: 8}
	bm, bk, bn := c.BlockDims()
	if bm != 48 || bk != 10 || bn != 96 {
		t.Fatalf("DimN dims %d %d %d", bm, bk, bn)
	}
	c.Dim = DimM
	bm, bk, bn = c.BlockDims()
	if bm != 96 || bk != 10 || bn != 48 {
		t.Fatalf("DimM dims %d %d %d", bm, bk, bn)
	}
	c.Dim = DimK
	bm, bk, bn = c.BlockDims()
	if bm != 16 || bk != 30 || bn != 32 {
		t.Fatalf("DimK dims %d %d %d", bm, bk, bn)
	}
}

func TestGridFor(t *testing.T) {
	c := Config{Cores: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8}
	g := c.GridFor(65, 16, 32)
	if g != (schedule.Dims{Mb: 3, Nb: 1, Kb: 1}) {
		t.Fatalf("grid %+v", g)
	}
}

func TestPlanForPlatforms(t *testing.T) {
	for _, pl := range platform.All() {
		cfg, err := Plan(pl, 3000, 3000, 3000, 4)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: invalid plan %v: %v", pl.Name, cfg, err)
		}
		if cfg.Cores != pl.Cores {
			t.Fatalf("%s: plan uses %d cores", pl.Name, cfg.Cores)
		}
		// The planned block must respect the LRU-safe LLC bound.
		if mem := cfg.Shape().LocalMemElems() * 4; mem > float64(pl.LLCBytes) {
			t.Fatalf("%s: block needs %v bytes > LLC %d", pl.Name, mem, pl.LLCBytes)
		}
	}
}

func TestPlanAlphaRespondsToBandwidth(t *testing.T) {
	// On all three Table 2 platforms the CB floor fits the available DRAM
	// bandwidth at α=1 (the paper sets α=1 "when there is sufficient
	// external bandwidth").
	for _, pl := range platform.All() {
		cfg, err := Plan(pl, 3000, 3000, 3000, 4)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Alpha != 1 {
			t.Fatalf("%s: α=%v, want 1", pl.Name, cfg.Alpha)
		}
	}
	// Starve the ARM part's DRAM (50 MB/s): the planner must raise α to
	// compensate (Section 3.2's α ≥ 1/(R−1)).
	starved := platform.ARMCortexA53()
	starved.DRAMBW = 50e6
	cfg, err := Plan(starved, 3000, 3000, 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha <= 1 {
		t.Fatalf("starved platform α=%v, want > 1", cfg.Alpha)
	}
	// And the taller block must still obey the LLC LRU rule.
	if mem := cfg.Shape().LocalMemElems() * 4; mem > float64(starved.LLCBytes) {
		t.Fatalf("starved plan block %v bytes > LLC", mem)
	}
}

func TestPlanIntelMatchesPaperScale(t *testing.T) {
	// Section 4.4: i9 with p=10, α=1 uses mc=kc=192 when filling the L3
	// exactly; our LRU-guarded rule lands in the same regime.
	cfg, _ := Plan(platform.IntelI9(), 23040, 23040, 23040, 4)
	if cfg.MC < 96 || cfg.MC > 192 {
		t.Fatalf("Intel planned mc=%d, expected O(paper's 192)", cfg.MC)
	}
}

func TestPlanClampsToProblem(t *testing.T) {
	cfg, err := Plan(platform.IntelI9(), 40, 12, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.KC > 12 {
		t.Fatalf("kc=%d not clamped to K", cfg.KC)
	}
	if cfg.MC > 8*((40/10+7)/8*8)+8 {
		t.Fatalf("mc=%d not clamped to M/p", cfg.MC)
	}
	checkGemm[float32](t, cfg, 40, 12, 40, 30, 1e-5)
}

func TestPlanRejectsBadInput(t *testing.T) {
	if _, err := Plan(platform.IntelI9(), 0, 1, 1, 4); err == nil {
		t.Fatal("accepted M=0")
	}
	if _, err := Plan(platform.IntelI9(), 1, 1, 1, 0); err == nil {
		t.Fatal("accepted elemBytes=0")
	}
	bad := platform.IntelI9()
	bad.Cores = 0
	if _, err := Plan(bad, 1, 1, 1, 4); err == nil {
		t.Fatal("accepted invalid platform")
	}
}

func TestPlannedGemmEndToEnd(t *testing.T) {
	// Plan for the ARM platform (α > 1) and execute a real multiplication.
	cfg, err := Plan(platform.ARMCortexA53(), 300, 200, 250, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkGemm[float64](t, cfg, 300, 200, 250, 31, 1e-12)
}

func TestComputeDimString(t *testing.T) {
	if DimN.String() != "N" || DimM.String() != "M" || DimK.String() != "K" {
		t.Fatal("ComputeDim names")
	}
}

func TestChunkSpanCoversAll(t *testing.T) {
	for rows := 1; rows < 40; rows++ {
		for chunks := 1; chunks <= rows && chunks < 9; chunks++ {
			covered := 0
			prevEnd := 0
			for i := 0; i < chunks; i++ {
				off, cnt := chunkSpan(i, chunks, rows)
				if off != prevEnd {
					t.Fatalf("gap at chunk %d (rows=%d chunks=%d)", i, rows, chunks)
				}
				covered += cnt
				prevEnd = off + cnt
			}
			if covered != rows {
				t.Fatalf("chunks cover %d of %d rows", covered, rows)
			}
		}
	}
}

func TestGemmTransposedOperands(t *testing.T) {
	// All four op(A)/op(B) combinations across all three compute dims must
	// match the reference computed on explicitly transposed copies.
	rng := rand.New(rand.NewSource(77))
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(2, dim)
		e, err := NewExecutor[float64](cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			m, k, n := 30+rng.Intn(40), 1+rng.Intn(50), 1+rng.Intn(60)
			logicalA := matrix.New[float64](m, k)
			logicalB := matrix.New[float64](k, n)
			logicalA.Randomize(rng)
			logicalB.Randomize(rng)

			a := logicalA
			if tc.ta {
				a = logicalA.Transpose()
			}
			b := logicalB
			if tc.tb {
				b = logicalB.Transpose()
			}
			c := matrix.New[float64](m, n)
			want := matrix.New[float64](m, n)
			matrix.NaiveGemm(want, logicalA, logicalB)
			if _, err := e.GemmT(c, a, b, tc.ta, tc.tb); err != nil {
				t.Fatalf("dim=%v ta=%v tb=%v: %v", dim, tc.ta, tc.tb, err)
			}
			if !c.AlmostEqual(want, k, 1e-12) {
				t.Fatalf("dim=%v ta=%v tb=%v (%dx%dx%d): diff %g",
					dim, tc.ta, tc.tb, m, k, n, c.MaxAbsDiff(want))
			}
		}
		e.Close()
	}
}

func TestGemmTDimensionErrors(t *testing.T) {
	e, err := NewExecutor[float64](smallConfig(1, DimN), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := matrix.New[float64](4, 5)
	b := matrix.New[float64](5, 6)
	c := matrix.New[float64](4, 6)
	// transA flips A's logical shape to 5x4: inner dims no longer agree.
	if _, err := e.GemmT(c, a, b, true, false); err == nil {
		t.Fatal("expected dimension error with transA")
	}
	// Wrong C shape.
	if _, err := e.GemmT(matrix.New[float64](6, 4), a, b, false, false); err == nil {
		t.Fatal("expected dimension error for C")
	}
}

func TestGemmTResetsBetweenCalls(t *testing.T) {
	// A transposed call must not leak its flags into the next plain call.
	e, err := NewExecutor[float64](smallConfig(2, DimN), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	a := matrix.New[float64](20, 30)
	b := matrix.New[float64](30, 25)
	a.Randomize(rng)
	b.Randomize(rng)
	want := matrix.New[float64](20, 25)
	matrix.NaiveGemm(want, a, b)

	cT := matrix.New[float64](20, 25)
	if _, err := e.GemmT(cT, a.Transpose(), b, true, false); err != nil {
		t.Fatal(err)
	}
	c := matrix.New[float64](20, 25)
	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if !c.AlmostEqual(want, 30, 1e-12) || !cT.AlmostEqual(want, 30, 1e-12) {
		t.Fatal("transpose flag leaked across calls")
	}
}
