package experiments

import (
	"testing"

	"repro/internal/engine"
)

// TestResidentBenchQuickRun measures the full grid's resident probes in
// quick mode, checking structure: every weight shape produces a resident
// and a per-call-packing cell with GatedRuns paired runs, the shapes span
// the tiny, small and large tiers, and the invariant's shape is among them.
func TestResidentBenchQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("resident probes run in -short mode")
	}
	specs, err := corpusGrid("full", true)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	tiers := map[string]bool{}
	gate := false
	for _, spec := range specs {
		if spec.cells[0].Scenario != "resident-bt" {
			continue
		}
		cells, err := measureProbe(env, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, fresh := cells[0], cells[1]
		if fresh.Scenario != "fresh-bt" || res.Shape != fresh.Shape || res.Dtype != fresh.Dtype {
			t.Fatalf("resident pair mismatched: %s vs %s", res.Key(), fresh.Key())
		}
		for _, c := range cells {
			if c.Runs != GatedRuns || len(c.RunRates) != GatedRuns || c.GFLOPS <= 0 {
				t.Fatalf("%s not measured over %d runs: %+v", c.Key(), GatedRuns, c)
			}
		}
		tiers[res.Tier] = true
		gate = gate || res.Key() == "serve-384/resident-bt/f64"
	}
	if !gate {
		t.Fatal("no serve-384/resident-bt/f64 cell")
	}
	for _, tier := range []string{"tiny", "small", "large"} {
		if !tiers[tier] {
			t.Fatalf("no resident shape landed on the %s tier: %v", tier, tiers)
		}
	}
	if st := env.e.ResidentStats(); st.Hits == 0 || st.AvoidedPackBytes == 0 {
		t.Fatalf("resident counters empty after the probes: %+v", st)
	}
}

// TestResidentBenchTierNames pins the fixed-model tier classification of
// the benchmark shapes, so a platform-model change that silently moves a
// shape across tiers fails loudly rather than shifting the gate's meaning.
func TestResidentBenchTierNames(t *testing.T) {
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(1), Name: "resident-tier-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if tier := e.TierFor(8, 24, 24, 4); tier != engine.TierTiny {
		t.Fatalf("8x24x24 f32 = %v, want tiny", tier)
	}
	if tier := e.TierFor(8, 320, 320, 4); tier != engine.TierSmall {
		t.Fatalf("8x320x320 f32 = %v, want small", tier)
	}
	if tier := e.TierFor(8, 384, 384, 8); tier != engine.TierLarge {
		t.Fatalf("8x384x384 f64 = %v, want large", tier)
	}
	if tier := e.TierFor(48, 576, 576, 4); tier != engine.TierLarge {
		t.Fatalf("48x576x576 f32 = %v, want large", tier)
	}
}
