package benchgate

import (
	"slices"
	"testing"

	"repro/internal/experiments"
)

// atBound returns a healthy epoch whose every run puts inv exactly on its
// bound, then moves the numerator by the relative nudge (0: on the bound;
// positive: just past it, on the failing side).
func atBound(t *testing.T, inv Invariant, nudge float64) *experiments.CorpusEpoch {
	t.Helper()
	e := healthyEpoch(t, 1)
	if inv.Metric == MetricRecords {
		setCell(t, e, inv.Num, func(c *experiments.CorpusCell) { c.Records = int64(inv.Bound) - int64(nudge*1e9) })
		return e
	}
	num := 100 * inv.Bound
	if inv.Metric == MetricOverhead {
		num = 100 * (1 - inv.Bound)
	}
	// A larger numerator raises a ratio and lowers an overhead.
	if (inv.Metric == MetricOverhead) == (inv.Op[0] == '<') {
		num *= 1 - nudge
	} else {
		num *= 1 + nudge
	}
	series := func(c *experiments.CorpusCell) *[]float64 {
		switch inv.Metric {
		case MetricP50:
			return &c.RunP50
		case MetricBWCoV:
			return &c.RunBWCoV
		default:
			return &c.RunRates
		}
	}
	setCell(t, e, inv.Den, func(c *experiments.CorpusCell) { *series(c) = flat(100) })
	setCell(t, e, inv.Num, func(c *experiments.CorpusCell) { *series(c) = flat(num) })
	return e
}

// TestInvariantsExactBound: every invariant passes exactly at its bound and
// fails just past it. The bandwidth invariant is strict (CAKE's CoV must be
// below GOTO's), so it fails at the bound and passes just inside it.
func TestInvariantsExactBound(t *testing.T) {
	for _, inv := range Invariants {
		at := inv.Check(atBound(t, inv, 0))
		if at.Candidate != inv.Bound {
			t.Fatalf("%s: candidate %v, want exactly the bound %v", inv.Name, at.Candidate, inv.Bound)
		}
		past := inv.Check(atBound(t, inv, 1e-9))
		if !past.Regression {
			t.Fatalf("%s: %v just past bound %v passed (%s)", inv.Name, past.Candidate, inv.Bound, past.Detail)
		}
		if inv.Op == "<" {
			if !at.Regression {
				t.Fatalf("%s: strict invariant passed at its bound", inv.Name)
			}
			if inside := inv.Check(atBound(t, inv, -1e-9)); inside.Regression {
				t.Fatalf("%s: %v just inside strict bound failed", inv.Name, inside.Candidate)
			}
			continue
		}
		if at.Regression {
			t.Fatalf("%s: failed exactly at its bound: %s", inv.Name, at.Detail)
		}
	}
}

// TestInvariantPickUsesBestOrWorstRun: with k of five runs clearing the
// bound, a best-run invariant passes from k = 1, a median-run one from
// k = 3 and a worst-run one only at k = 5.
func TestInvariantPickUsesBestOrWorstRun(t *testing.T) {
	need := map[Pick]int{PickBest: 1, PickMedian: 3, PickWorst: 5}
	for _, inv := range Invariants {
		if inv.Metric == MetricRecords {
			continue
		}
		good, _ := atBound(t, inv, -0.5).CellByKey(inv.Num)
		for k := 0; k <= 5; k++ {
			e := atBound(t, inv, 0.5) // every run fails
			setCell(t, e, inv.Num, func(c *experiments.CorpusCell) {
				for r := 0; r < k; r++ {
					c.RunRates[r], c.RunP50[r], c.RunBWCoV[r] = good.RunRates[r], good.RunP50[r], good.RunBWCoV[r]
				}
			})
			if f := inv.Check(e); f.Regression != (k < need[inv.Pick]) {
				t.Fatalf("%s (%s run) with %d clearing runs: regression=%v (%s)", inv.Name, inv.Pick, k, f.Regression, f.Detail)
			}
		}
	}
}

func TestInvariantMissingCellIsRegression(t *testing.T) {
	for _, inv := range Invariants {
		for _, key := range []string{inv.Num, inv.Den} {
			if key == "" {
				continue
			}
			e := healthyEpoch(t, 3)
			dropCell(e, key)
			if f := inv.Check(e); !f.Regression {
				t.Fatalf("%s passed without %s: %s", inv.Name, key, f.Detail)
			}
		}
	}
}

func TestInvariantNeedsGatedRuns(t *testing.T) {
	inv := Invariants[0]
	e := healthyEpoch(t, 1)
	setCell(t, e, inv.Num, func(c *experiments.CorpusCell) { c.RunRates = c.RunRates[:experiments.GatedRuns-1] })
	setCell(t, e, inv.Den, func(c *experiments.CorpusCell) { c.RunRates = c.RunRates[:experiments.GatedRuns-1] })
	if f := inv.Check(e); !f.Regression {
		t.Fatalf("%s judged on %d runs: %s", inv.Name, experiments.GatedRuns-1, f.Detail)
	}
}

// TestInvariantCellsInFullGrid: every cell the gate names is measured by
// the full grid.
func TestInvariantCellsInFullGrid(t *testing.T) {
	keys, err := experiments.CorpusKeys("full", false)
	if err != nil {
		t.Fatal(err)
	}
	named := append([]string{CoVCeilingCell}, FlooredCells...)
	for _, inv := range Invariants {
		named = append(named, inv.Num)
		if inv.Den != "" {
			named = append(named, inv.Den)
		}
	}
	for _, k := range named {
		if !slices.Contains(keys, k) {
			t.Fatalf("%s is not a full-grid cell", k)
		}
	}
	if len(FlooredCells) != 21 {
		t.Fatalf("%d floored cells, want the 21 rows the per-feature gates floored", len(FlooredCells))
	}
}

// floorTrend analyzes prev then cur on one host and returns cur's cell.
func floorTrend(t *testing.T, prev, cur *experiments.CorpusEpoch, key string) CellTrend {
	t.Helper()
	rep, err := AnalyzeTrend([]*experiments.CorpusEpoch{prev, cur}, DefaultTrendOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Cell == key {
			return c
		}
	}
	t.Fatalf("no trend cell %s", key)
	return CellTrend{}
}

// scaleCell scales a cell's GFLOP/s statistics.
func scaleCell(t *testing.T, e *experiments.CorpusEpoch, key string, f, cov float64) {
	setCell(t, e, key, func(c *experiments.CorpusCell) {
		c.GFLOPS *= f
		c.BestGFLOPS *= f
		c.MedianGFLOPS *= f
		c.CoV = cov
	})
}

func TestCompareGemmIdenticalPasses(t *testing.T) {
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	res := Result{Findings: CheckInvariants(cur)}
	rep, err := AnalyzeTrend([]*experiments.CorpusEpoch{prev, cur}, DefaultTrendOptions())
	if err != nil {
		t.Fatal(err)
	}
	res.Findings = append(res.Findings, rep.Findings()...)
	if !res.OK() {
		t.Fatalf("identical epochs regressed: %+v", res.Regressions())
	}
}

// TestCompareGemmFlagsLargeDropOnly: the floor allows the best run down to
// 80% of the previous epoch's worst run, and no further — even for a cell
// too noisy for the trend detectors to judge.
func TestCompareGemmFlagsLargeDropOnly(t *testing.T) {
	const key = "square/exec/f32"
	prev := healthyEpoch(t, 1) // worst run 10: floor 8
	for _, tc := range []struct {
		best float64
		want bool
	}{{8, false}, {7.99, true}} {
		cur := healthyEpoch(t, 2)
		setCell(t, cur, key, func(c *experiments.CorpusCell) {
			c.GFLOPS, c.MedianGFLOPS, c.BestGFLOPS, c.CoV = tc.best*0.9, tc.best*0.95, tc.best, 0.5
		})
		c := floorTrend(t, prev, cur, key)
		if got := c.Verdict == VerdictRegressed && c.Kind == "floor"; got != tc.want {
			t.Fatalf("best run %v against floor 8: %s/%s (%s)", tc.best, c.Verdict, c.Kind, c.Detail)
		}
	}
}

func TestCompareGemmMissingRowIsRegression(t *testing.T) {
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	dropCell(cur, "skewed/exec-cache/f32")
	c := floorTrend(t, prev, cur, "skewed/exec-cache/f32")
	if c.Verdict != VerdictRegressed {
		t.Fatalf("vanished floored cell = %s", c.Verdict)
	}
}

func TestCompareTimelineCoVGatesCakeOnly(t *testing.T) {
	prev := healthyEpoch(t, 1) // worst CAKE run CoV 0.2 → ceiling 0.2×1.5+0.1 = 0.4
	cur := healthyEpoch(t, 2)
	setCell(t, cur, "skewed/trace-cake/f32", func(c *experiments.CorpusCell) { c.RunBWCoV = flat(0.41) })
	setCell(t, cur, "skewed/trace-goto/f32", func(c *experiments.CorpusCell) { c.RunBWCoV = flat(5) })
	if c := floorTrend(t, prev, cur, "skewed/trace-cake/f32"); c.Verdict != VerdictRegressed || c.Kind != "bw-cov" {
		t.Fatalf("CAKE CoV past its ceiling = %s/%s (%s)", c.Verdict, c.Kind, c.Detail)
	}
	if c := floorTrend(t, prev, cur, "skewed/trace-goto/f32"); c.Verdict == VerdictRegressed {
		t.Fatalf("GOTO CoV growth gated: %s", c.Detail)
	}
	setCell(t, cur, "skewed/trace-cake/f32", func(c *experiments.CorpusCell) { c.RunBWCoV = []float64{0.9, 0.4, 0.9, 0.9, 0.9} })
	if c := floorTrend(t, prev, cur, "skewed/trace-cake/f32"); c.Verdict == VerdictRegressed {
		t.Fatalf("best CAKE run on the ceiling gated: %s", c.Detail)
	}
}

func TestCompareResidentIdenticalPasses(t *testing.T) {
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	if f := findingFor(t, CheckInvariants(cur), "resident"); f.Regression || f.Candidate != 3 {
		t.Fatalf("healthy resident invariant = %+v", f)
	}
	for _, key := range FlooredCells[6:10] {
		if c := floorTrend(t, prev, cur, key); c.Verdict == VerdictRegressed {
			t.Fatalf("%s regressed against an identical epoch: %s", key, c.Detail)
		}
	}
}

// TestCompareResidentGatesThroughput: a resident cell falling through the
// floor gates even when its noise makes the trend detectors abstain.
func TestCompareResidentGatesThroughput(t *testing.T) {
	const key = "serve-384/resident-bt/f64"
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	scaleCell(t, cur, key, 0.5, 0.5)
	if c := floorTrend(t, prev, cur, key); c.Verdict != VerdictRegressed || c.Kind != "floor" {
		t.Fatalf("halved resident throughput = %s/%s (%s)", c.Verdict, c.Kind, c.Detail)
	}
}

// TestCompareResidentSpeedupFloorIsAbsolute: the resident invariant judges
// the epoch alone — no earlier epoch moves its bound.
func TestCompareResidentSpeedupFloorIsAbsolute(t *testing.T) {
	inv := Invariants[slices.IndexFunc(Invariants, func(i Invariant) bool { return i.Name == "resident" })]
	if inv.Bound != MinResidentSpeedup || inv.Pick != PickBest || inv.Metric != MetricRate {
		t.Fatalf("resident invariant = %+v", inv)
	}
	if f := inv.Check(atBound(t, inv, 0)); f.Regression || f.Candidate != 1.5 {
		t.Fatalf("1.5x failed the 1.5x floor: %+v", f)
	}
	if f := inv.Check(atBound(t, inv, 0.01)); !f.Regression {
		t.Fatalf("%.3fx passed the 1.5x floor", f.Candidate)
	}
}

func TestCompareResidentMissingRows(t *testing.T) {
	e := healthyEpoch(t, 1)
	dropCell(e, "serve-384/resident-bt/f64")
	if f := findingFor(t, CheckInvariants(e), "resident"); !f.Regression {
		t.Fatalf("resident invariant passed without its resident cell: %+v", f)
	}
}

func TestCompareServeIdenticalPasses(t *testing.T) {
	fs := CheckInvariants(healthyEpoch(t, 1))
	for _, name := range []string{"serve", "serve-tiny-ab", "obs-overhead", "obs-records"} {
		if f := findingFor(t, fs, name); f.Regression {
			t.Fatalf("%s regressed on a healthy epoch: %s", name, f.Detail)
		}
	}
}

func TestCompareServeGatesEngineThroughput(t *testing.T) {
	for _, key := range []string{"mix/engine/f32", "mix-tiny/engine/f32", "mix/recorder-on/f32"} {
		prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
		scaleCell(t, cur, key, 0.5, 0.01)
		if c := floorTrend(t, prev, cur, key); c.Verdict != VerdictRegressed || c.Kind != "floor" {
			t.Fatalf("%s halved = %s/%s", key, c.Verdict, c.Kind)
		}
	}
}

func TestCompareServeSpeedupFloorIsAbsolute(t *testing.T) {
	inv := Invariants[slices.IndexFunc(Invariants, func(i Invariant) bool { return i.Name == "serve" })]
	if f := inv.Check(atBound(t, inv, 0)); f.Regression || f.Candidate != MinServeSpeedup {
		t.Fatalf("2.0x failed the serve floor: %+v", f)
	}
	if f := inv.Check(atBound(t, inv, 0.05)); !f.Regression {
		t.Fatalf("%.2fx passed the serve floor", f.Candidate)
	}
}

func TestCompareServeTinyABGate(t *testing.T) {
	inv := Invariants[slices.IndexFunc(Invariants, func(i Invariant) bool { return i.Name == "serve-tiny-ab" })]
	if inv.Bound != 1.1 || inv.Op != "<=" || inv.Metric != MetricP50 {
		t.Fatalf("tiny A/B invariant = %+v", inv)
	}
	if f := inv.Check(atBound(t, inv, 0)); f.Regression {
		t.Fatalf("direct p50 at 1.10x full-CAKE failed: %+v", f)
	}
	if f := inv.Check(atBound(t, inv, 0.05)); !f.Regression {
		t.Fatalf("direct p50 at %.3fx full-CAKE passed", f.Candidate)
	}
}

func TestCompareServeMissingEngineTierRow(t *testing.T) {
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	dropCell(cur, "mix-small/engine/f32")
	if c := floorTrend(t, prev, cur, "mix-small/engine/f32"); c.Verdict != VerdictRegressed {
		t.Fatalf("vanished engine tier = %s", c.Verdict)
	}
}

// TestCompareServeSerializedRowsInformational: the serialized executor is
// the serve invariant's contrast, not a claim, so it carries no floor — a
// noisy collapse leaves it to the trend detectors, which abstain.
func TestCompareServeSerializedRowsInformational(t *testing.T) {
	prev, cur := healthyEpoch(t, 1), healthyEpoch(t, 2)
	scaleCell(t, cur, "mix/serialized/f32", 0.5, 0.5)
	if c := floorTrend(t, prev, cur, "mix/serialized/f32"); c.Verdict != VerdictNoisy {
		t.Fatalf("serialized collapse = %s (%s), want noisy", c.Verdict, c.Detail)
	}
}
