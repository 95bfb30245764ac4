package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// GemmBenchRow is one (shape, executor mode) measurement from the real-GEMM
// executor comparison: wall-clock throughput plus the packing / panel-reuse
// accounting that explains it.
type GemmBenchRow struct {
	Shape        string  `json:"shape"`
	Mode         string  `json:"mode"` // pipelined | pipelined+cache
	M            int     `json:"m"`
	K            int     `json:"k"`
	N            int     `json:"n"`
	GFLOPS       float64 `json:"gflops"`
	PackShare    float64 `json:"pack_share"`
	PackedAElems int64   `json:"packed_a_elems"`
	PackedBElems int64   `json:"packed_b_elems"`
	ReusedAElems int64   `json:"reused_a_elems"`
	ReusedBElems int64   `json:"reused_b_elems"`
	OverlapNanos int64   `json:"overlap_nanos"`
}

// gemmBenchCase is one shape class with the CB geometry used to run it.
type gemmBenchCase struct {
	name    string
	m, k, n int
	cfg     core.Config
}

func gemmBenchCases(cores int, quick bool) []gemmBenchCase {
	square := gemmBenchCase{
		name: "square", m: 384, k: 384, n: 384,
		cfg: core.Config{Cores: cores, MC: 64, KC: 128, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto},
	}
	// The Fig. 11 / Section 5.2.1 skewed class: M far smaller than K and N,
	// so packing is a large share of the work and the K-first schedule
	// revisits the small set of A panels on every N step.
	skewed := gemmBenchCase{
		name: "skewed-small-M", m: 32, k: 1024, n: 512,
		cfg: core.Config{Cores: cores, MC: 8, KC: 512, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto},
	}
	if quick {
		square.m, square.k, square.n = 192, 192, 192
		skewed.m, skewed.k, skewed.n = 32, 512, 256
		skewed.cfg.KC = 256
	}
	return []gemmBenchCase{square, skewed}
}

// GemmBench runs the executor with and without a panel cache beyond the
// ping-pong pair on real host GEMMs, one row per (shape, mode). reps
// wall-clock runs are taken per row and the best kept.
func GemmBench(cores int, quick bool) ([]GemmBenchRow, error) {
	reps := 3
	if quick {
		reps = 2
	}
	modes := []struct {
		name string
		opts []core.Option
	}{
		{"pipelined", nil},
		{"pipelined+cache", []core.Option{core.WithPanelCache(16)}},
	}
	var out []GemmBenchRow
	for _, bc := range gemmBenchCases(cores, quick) {
		rng := rand.New(rand.NewSource(11))
		a := matrix.New[float32](bc.m, bc.k)
		b := matrix.New[float32](bc.k, bc.n)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float32](bc.m, bc.n)
		flops := matrix.GemmFlops(bc.m, bc.n, bc.k)

		for _, mode := range modes {
			e, err := core.NewExecutor[float32](bc.cfg, nil, mode.opts...)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", bc.name, mode.name, err)
			}
			var best time.Duration
			var st core.Stats
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				st, err = e.Gemm(c, a, b)
				el := time.Since(t0)
				if err != nil {
					e.Close()
					return nil, fmt.Errorf("experiments: %s/%s: %w", bc.name, mode.name, err)
				}
				if r == 0 || el < best {
					best = el
				}
			}
			e.Close()
			out = append(out, GemmBenchRow{
				Shape: bc.name, Mode: mode.name, M: bc.m, K: bc.k, N: bc.n,
				GFLOPS:       flops / float64(best.Nanoseconds()),
				PackShare:    st.PackShare(),
				PackedAElems: st.PackedAElems, PackedBElems: st.PackedBElems,
				ReusedAElems: st.ReusedAElems, ReusedBElems: st.ReusedBElems,
				OverlapNanos: st.OverlapNanos,
			})
		}
	}
	return out, nil
}
