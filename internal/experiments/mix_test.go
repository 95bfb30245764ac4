package experiments

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
)

func serveTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(1), Name: "serve-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestServeWorkloadDeterministicTiers(t *testing.T) {
	e := serveTestEngine(t)
	pools := serveWorkload(e)
	want := map[engine.Tier]int{engine.TierTiny: 32, engine.TierSmall: 16, engine.TierLarge: 4}
	for tier, n := range want {
		items := pools[tier]
		if len(items) != n {
			t.Fatalf("%v pool = %d items, want %d", tier, len(items), n)
		}
		for _, it := range items {
			if it.tier != tier {
				t.Fatalf("%dx%dx%d classified %v in the %v pool", it.m, it.k, it.n, it.tier, tier)
			}
		}
	}
	// The pools are seeded: a second generation must produce identical dims.
	again := serveWorkload(e)
	for tier := range want {
		for i := range pools[tier] {
			a, b := pools[tier][i], again[tier][i]
			if a.m != b.m || a.k != b.k || a.n != b.n {
				t.Fatalf("%v item %d dims changed across generations: %dx%dx%d vs %dx%dx%d",
					tier, i, a.m, a.k, a.n, b.m, b.k, b.n)
			}
		}
	}
}

func TestClientTierMix(t *testing.T) {
	counts := map[engine.Tier]int{}
	for cl := 0; cl < 16; cl++ {
		counts[clientTier(cl)]++
	}
	if counts[engine.TierTiny] != 10 || counts[engine.TierSmall] != 4 || counts[engine.TierLarge] != 2 {
		t.Fatalf("client mix over 16 clients = %v, want 10/4/2", counts)
	}
}

func TestPercentileMicros(t *testing.T) {
	samples := []time.Duration{
		4 * time.Microsecond, 1 * time.Microsecond, 3 * time.Microsecond, 2 * time.Microsecond,
	}
	if got := percentileMicros(samples, 50); got != 2 {
		t.Fatalf("p50 = %g, want 2 (nearest rank)", got)
	}
	if got := percentileMicros(samples, 100); got != 4 {
		t.Fatalf("p100 = %g, want 4", got)
	}
	if got := percentileMicros(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %g, want 0", got)
	}
}

// testEnv is a quick-mode probe environment on a one-core serve-bench
// engine.
func testEnv(t *testing.T) *probeEnv {
	t.Helper()
	return &probeEnv{e: serveTestEngine(t), cores: 1, quick: true, rng: rand.New(rand.NewSource(1))}
}

// runOnce builds a probe and takes one run, returning one sample per cell.
func runOnce(t *testing.T, spec probeSpec, env *probeEnv) []runSample {
	t.Helper()
	run, cleanup, err := spec.build(env)
	if err != nil {
		t.Fatal(err)
	}
	if cleanup != nil {
		defer cleanup()
	}
	got, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spec.cells) {
		t.Fatalf("%d samples for %d cells", len(got), len(spec.cells))
	}
	return got
}

// TestServeBenchShortRun runs the mixed-serving probes once with the quick
// window, checking structure rather than timing: both serving modes
// completed requests, every engine tier served, and the tiny dispatch A/B
// measured both paths.
func TestServeBenchShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("serve probes run in -short mode")
	}
	env := testEnv(t)
	spec := serveMixSpec()
	got := runOnce(t, spec, env)
	for i, s := range got {
		if s.gemms <= 0 || s.flops <= 0 || s.elapsed <= 0 {
			t.Fatalf("%s: empty sample %+v", spec.cells[i].Key(), s)
		}
	}
	if total, tiers := got[0].gemms, got[1].gemms+got[2].gemms+got[3].gemms; total != tiers {
		t.Fatalf("engine total %d != sum of tiers %d", total, tiers)
	}
	if got[1].p50 <= 0 {
		t.Fatalf("tiny tier p50 not recorded: %+v", got[1])
	}
	ab := runOnce(t, tinyABSpec(), env)
	if ab[0].p50 <= 0 || ab[1].p50 <= 0 || ab[0].gemms != ab[1].gemms {
		t.Fatalf("tiny dispatch A/B not measured on both paths: %+v", ab)
	}
}

// TestObsProbeRecords checks the recorder-on side of the observability A/B
// actually commits request records.
func TestObsProbeRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("obs probe runs in -short mode")
	}
	got := runOnce(t, obsSpec(), testEnv(t))
	if got[0].records < 1 || got[1].records != 0 {
		t.Fatalf("records on/off = %d/%d, want ≥1/0", got[0].records, got[1].records)
	}
	if got[0].gemms <= 0 || got[1].gemms <= 0 {
		t.Fatalf("a side served nothing: %+v", got)
	}
}
