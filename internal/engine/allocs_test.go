package engine

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/platform"
)

// TestAllocsPerCall pins the heap allocations of one engine call on the
// three serving paths: a tiny direct call, a small pooled call and a small
// resident call (f32, detected two-core host). Single and resident calls run
// as batches of one; wrapping a call that way must add no heap traffic on
// the hot path, so the limits are today's counts.
func TestAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop leases at random")
	}
	e, err := NewEngine(Options{Platform: platform.DetectHost(2), Name: "test-" + t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	mk := func(r, c int) *matrix.Matrix[float32] {
		m := matrix.New[float32](r, c)
		m.Randomize(rng)
		return m
	}
	ta, tb, tc := mk(8, 24), mk(24, 24), mk(8, 24)
	sa, sb, sc := mk(32, 128), mk(128, 128), mk(32, 128)
	if err := RegisterB(e, "w", mk(128, 128)); err != nil {
		t.Fatal(err)
	}
	if got := e.TierFor(8, 24, 24, 4); got != TierTiny {
		t.Fatalf("8x24x24 f32 on this host is %v, want tiny", got)
	}
	if got := e.TierFor(32, 128, 128, 4); got != TierSmall {
		t.Fatalf("32x128x128 f32 on this host is %v, want small", got)
	}
	for _, tc := range []struct {
		name  string
		limit float64
		call  func() error
	}{
		{"tiny", 1, func() error { _, err := GemmScaled(e, tc, ta, tb, false, false, 1, 0); return err }},
		{"small", 19, func() error { _, err := GemmScaled(e, sc, sa, sb, false, false, 1, 0); return err }},
		{"resident", 20, func() error { _, err := GemmResidentScaled(e, sc, sa, "w", false, 1, 0); return err }},
	} {
		for i := 0; i < 5; i++ { // warm the lease caches and packing buffers
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if got > tc.limit {
			t.Errorf("%s call: %.1f allocs/call, limit %.0f", tc.name, got, tc.limit)
		}
		t.Logf("%s call: %.1f allocs/call (limit %.0f)", tc.name, got, tc.limit)
	}
}
