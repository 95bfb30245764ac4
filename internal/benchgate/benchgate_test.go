package benchgate

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// flat is n identical per-run values.
func flat(v float64) []float64 {
	return []float64{v, v, v, v, v}
}

// healthyEpoch is a synthetic epoch on host "a" carrying every full-grid
// cell over five flat runs, with every invariant holding by a wide margin.
func healthyEpoch(t *testing.T, seq int) *experiments.CorpusEpoch {
	t.Helper()
	keys, err := experiments.CorpusKeys("full", false)
	if err != nil {
		t.Fatal(err)
	}
	e := &experiments.CorpusEpoch{
		Envelope: experiments.Envelope{SchemaVersion: experiments.BenchSchemaVersion, Artifact: "corpus", Host: trendHost("a")},
		Seq:      seq, Grid: "full",
	}
	for _, k := range keys {
		id := strings.Split(k, "/")
		e.Cells = append(e.Cells, experiments.CorpusCell{
			Shape: id[0], Scenario: id[1], Dtype: id[2], Runs: 5,
			GFLOPS: 10, BestGFLOPS: 10.5, MedianGFLOPS: 10.2, CoV: 0.01,
			RunRates: flat(100), RunP50: flat(10), RunBWCoV: flat(0.2),
		})
	}
	set := func(key string, f func(c *experiments.CorpusCell)) { setCell(t, e, key, f) }
	set("serve-384/resident-bt/f64", func(c *experiments.CorpusCell) { c.RunRates = flat(300) })
	set("tiny/batch-32/f32", func(c *experiments.CorpusCell) { c.RunRates = flat(200) })
	set("mix/recorder-on/f32", func(c *experiments.CorpusCell) { c.Records = 10 })
	set("mix/engine/f32", func(c *experiments.CorpusCell) { c.RunRates = flat(1000) })
	set("tiny-mix/direct/f32", func(c *experiments.CorpusCell) { c.RunP50 = flat(5) })
	set("skewed/trace-goto/f32", func(c *experiments.CorpusCell) { c.RunBWCoV = flat(0.7) })
	return e
}

// setCell edits one cell of an epoch in place.
func setCell(t *testing.T, e *experiments.CorpusEpoch, key string, f func(c *experiments.CorpusCell)) {
	t.Helper()
	for i := range e.Cells {
		if e.Cells[i].Key() == key {
			f(&e.Cells[i])
			return
		}
	}
	t.Fatalf("no cell %s", key)
}

// dropCell removes one cell from an epoch.
func dropCell(e *experiments.CorpusEpoch, key string) {
	out := e.Cells[:0]
	for _, c := range e.Cells {
		if c.Key() != key {
			out = append(out, c)
		}
	}
	e.Cells = out
}

func findingFor(t *testing.T, fs []Finding, key string) Finding {
	t.Helper()
	for _, f := range fs {
		if f.Key == key {
			return f
		}
	}
	t.Fatalf("no finding for %s in %+v", key, fs)
	return Finding{}
}

func TestBest(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 3},
		{[]float64{4, 1, 3, 2}, 4},
	} {
		if got := best(append([]float64{}, tc.vals...)); got != tc.want {
			t.Errorf("best(%v) = %g, want %g", tc.vals, got, tc.want)
		}
	}
}

func TestFloor(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 1},
	} {
		if got := floor(append([]float64{}, tc.vals...)); got != tc.want {
			t.Errorf("floor(%v) = %g, want %g", tc.vals, got, tc.want)
		}
	}
}

func TestRenderListsVerdicts(t *testing.T) {
	e := healthyEpoch(t, 1)
	dropCell(e, "serve-384/fresh-bt/f64")
	res := Result{Findings: CheckInvariants(e)}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "resident") ||
		!strings.Contains(out, "serve-384/fresh-bt/f64 missing") {
		t.Fatalf("render output missing verdicts:\n%s", out)
	}
}
