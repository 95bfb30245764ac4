package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs"
)

// A traced run's measured traffic must meet PredictTraffic exactly — both
// sides derive from the same per-block formulas, so any gap is a bug in one
// of them. The panel cache can serve part of the predicted pack traffic, so
// measured pack + avoided == predicted pack.
func TestPredictTrafficMatchesTracedRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cores   int // one core: a one-worker pool, no lookahead packing
		m, k, n int
	}{
		{"one-worker aligned", 1, 64, 128, 64},
		{"one-worker ragged", 1, 50, 100, 70},
		{"pipelined aligned", 2, 64, 128, 64},
		{"pipelined ragged", 2, 50, 100, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cores: tc.cores, MC: 16, KC: 32, Alpha: 1, MR: 8, NR: 8, Dim: DimN, Order: OrderAuto}
			rec := obs.NewRecorder(cfg.Cores, 4096)
			e, err := NewExecutor[float32](cfg, nil, WithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			rng := rand.New(rand.NewSource(7))
			a := matrix.New[float32](tc.m, tc.k)
			b := matrix.New[float32](tc.k, tc.n)
			c := matrix.New[float32](tc.m, tc.n)
			a.Randomize(rng)
			b.Randomize(rng)
			if _, err := e.Gemm(c, a, b); err != nil {
				t.Fatal(err)
			}
			if d := rec.Dropped(); d > 0 {
				t.Fatalf("recorder dropped %d spans; grow the ring", d)
			}

			pred := cfg.PredictTraffic(tc.m, tc.k, tc.n, 4)
			meas, avoided := obs.MeasuredTraffic(rec.Spans())
			if got := meas.PackBytes + avoided; got != pred.PackBytes {
				t.Errorf("pack: measured %d + avoided %d = %d, predicted %d",
					meas.PackBytes, avoided, got, pred.PackBytes)
			}
			if meas.ComputeBytes != pred.ComputeBytes || pred.ComputeBytes != 0 {
				t.Errorf("compute: measured %d, predicted %d (want 0: partial C stays resident)",
					meas.ComputeBytes, pred.ComputeBytes)
			}
			if meas.UnpackBytes != pred.UnpackBytes {
				t.Errorf("unpack: measured %d, predicted %d", meas.UnpackBytes, pred.UnpackBytes)
			}
		})
	}
}

func TestPredictTrafficHandValues(t *testing.T) {
	// One exact block: 16×32 × 32×16 on a p=1 mc=16 kc=32 α=1 config.
	// Block dims 16×32×16, grid 1×1×1: pack (16+16)·32·4 = 4096 bytes,
	// unpack 2·16·16·4 = 2048 bytes.
	cfg := Config{Cores: 1, MC: 16, KC: 32, Alpha: 1, MR: 8, NR: 8, Dim: DimN, Order: OrderAuto}
	tr := cfg.PredictTraffic(16, 32, 16, 4)
	if tr.PackBytes != 4096 || tr.ComputeBytes != 0 || tr.UnpackBytes != 2048 {
		t.Fatalf("single-block traffic = %+v", tr)
	}
	if cfg.PredictBlocks(16, 32, 16) != 1 {
		t.Fatalf("blocks = %d, want 1", cfg.PredictBlocks(16, 32, 16))
	}
	// Doubling K doubles pack traffic but leaves unpack (per (M,N) run)
	// unchanged — the K-first schedule's point.
	tr2 := cfg.PredictTraffic(16, 64, 16, 4)
	if tr2.PackBytes != 2*tr.PackBytes || tr2.UnpackBytes != tr.UnpackBytes {
		t.Fatalf("2K traffic = %+v vs %+v", tr2, tr)
	}
}
