package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchgate"
	"repro/internal/experiments"
	"repro/internal/platform"
)

func TestRunCorpusMicroAppendsEpochs(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	out := filepath.Join(t.TempDir(), "BENCH_corpus.json")
	args := []string{"-quick", "-grid", "micro", "-runs", "1", "-store", store, "-out", out}

	var buf bytes.Buffer
	if err := runCorpus(args, &buf); err != nil {
		t.Fatalf("first corpus run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "appended epoch 0001") {
		t.Fatalf("missing append line:\n%s", buf.String())
	}
	epoch, err := experiments.LoadCorpusEpoch(out)
	if err != nil {
		t.Fatalf("BENCH_corpus.json unreadable: %v", err)
	}
	if epoch.Seq != 1 || len(epoch.Cells) != 4 || epoch.Artifact != "corpus" {
		t.Fatalf("epoch = seq %d, %d cells, artifact %q", epoch.Seq, len(epoch.Cells), epoch.Artifact)
	}

	// Second run appends seq 2 and -report renders the trajectory.
	buf.Reset()
	if err := runCorpus(append(args, "-report"), &buf); err != nil {
		t.Fatalf("second corpus run: %v\n%s", err, buf.String())
	}
	history, err := experiments.OpenCorpusStore(store).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 || history[1].Seq != 2 {
		t.Fatalf("store has %d epochs", len(history))
	}
	report, err := os.ReadFile(filepath.Join(store, "REPORT.md"))
	if err != nil {
		t.Fatalf("REPORT.md: %v", err)
	}
	for _, want := range []string{"# Corpus trajectory report", "tiny/fresh/f32", "small/resident/f32",
		"tiny/batch-32/f32", "tiny/loop-32/f32"} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("REPORT.md missing %q:\n%s", want, report)
		}
	}
}

// writeTrendStore fabricates a deterministic two-epoch corpus history (same
// synthetic host) whose latest small/fresh/f32 value is `latest`. Both
// epochs carry every invariant's cells over GatedRuns runs with the
// invariant holding by 10%; edit adjusts the latest epoch's cells.
func writeTrendStore(t *testing.T, dir string, latest float64, edit ...func(c *experiments.CorpusCell)) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	runs := func(v float64) []float64 {
		out := make([]float64, experiments.GatedRuns)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cells := map[string]*experiments.CorpusCell{}
	var order []string
	cell := func(key string) *experiments.CorpusCell {
		if c, ok := cells[key]; ok {
			return c
		}
		id := strings.Split(key, "/")
		c := &experiments.CorpusCell{Shape: id[0], Scenario: id[1], Dtype: id[2], Runs: experiments.GatedRuns,
			GFLOPS: 1, BestGFLOPS: 1, MedianGFLOPS: 1, CoV: 0.01,
			RunRates: runs(100), RunP50: runs(100), RunBWCoV: runs(100)}
		cells[key] = c
		order = append(order, key)
		return c
	}
	for _, inv := range benchgate.Invariants {
		num := cell(inv.Num)
		if inv.Metric == benchgate.MetricRecords {
			num.Records = int64(inv.Bound)
			continue
		}
		cell(inv.Den)
		v := 100 * inv.Bound * 1.1
		switch {
		case inv.Metric == benchgate.MetricOverhead:
			v = 100
		case inv.Op[0] == '<':
			v = 100 * inv.Bound / 1.1
		}
		switch inv.Metric {
		case benchgate.MetricP50:
			num.RunP50 = runs(v)
		case benchgate.MetricBWCoV:
			num.RunBWCoV = runs(v)
		default:
			num.RunRates = runs(v)
		}
	}
	for seq, g := range map[int]float64{1: 100, 2: latest} {
		e := experiments.CorpusEpoch{
			Envelope: experiments.Envelope{SchemaVersion: 2, Artifact: "corpus",
				Host: platform.Fingerprint{Hostname: "synthetic", OS: "linux", Arch: "amd64", Cores: 4}},
			Seq: seq, Grid: "micro", Quick: true, Protocol: "worst-of-N",
			Cells: []experiments.CorpusCell{{Shape: "small", Scenario: "fresh", Dtype: "f32",
				M: 8, K: 320, N: 320, Tier: "small", Reps: 60, Runs: 3,
				GFLOPS: g, BestGFLOPS: g, MedianGFLOPS: g, CoV: 0.01}},
		}
		for _, key := range order {
			c := *cells[key]
			if seq == 2 {
				for _, f := range edit {
					f(&c)
				}
			}
			e.Cells = append(e.Cells, c)
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%04d-synthetic.json", seq)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// trendVerdict returns the trend report's verdict for the small/fresh/f32
// cell.
func trendVerdict(t *testing.T, sum benchgate.Summary) benchgate.Verdict {
	t.Helper()
	for _, c := range sum.Trend.Cells {
		if c.Cell == "small/fresh/f32" {
			return c.Verdict
		}
	}
	t.Fatalf("no small/fresh/f32 trend cell in %+v", sum.Trend)
	return ""
}

func TestRunCheckJSONCarriesTrend(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 100) // flat history: trend OK

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-json"}, &buf)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, buf.String())
	}
	var sum benchgate.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("check -json output not JSON: %v\n%s", err, buf.String())
	}
	if !sum.OK || sum.Regressions != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Trend == nil {
		t.Fatal("summary missing trend")
	}
	if v := trendVerdict(t, sum); v != benchgate.VerdictOK {
		t.Fatalf("trend verdict = %s, want ok", v)
	}
}

func TestRunCheckTrendRegressionGates(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 60) // 40% cliff in the history

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-json"}, &buf)
	if err == nil {
		t.Fatalf("trend regression passed the gate:\n%s", buf.String())
	}
	var sum benchgate.Summary
	if jerr := json.Unmarshal(buf.Bytes(), &sum); jerr != nil {
		t.Fatalf("check -json output not JSON despite failure: %v\n%s", jerr, buf.String())
	}
	if sum.OK || sum.Regressions == 0 {
		t.Fatalf("summary = ok=%v regressions=%d, want failing", sum.OK, sum.Regressions)
	}
	if v := trendVerdict(t, sum); v != benchgate.VerdictRegressed {
		t.Fatalf("trend verdict = %s", v)
	}
}

func TestRunCheckTrendAdvisoryReportsWithoutGating(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 60) // 40% cliff in the history

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-trend-advisory", "-json"}, &buf)
	if err != nil {
		t.Fatalf("advisory trend regression failed the gate: %v\n%s", err, buf.String())
	}
	var sum benchgate.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.OK || sum.Regressions != 0 {
		t.Fatalf("summary = ok=%v regressions=%d, want passing", sum.OK, sum.Regressions)
	}
	// The verdict itself must survive advisory mode: the report still says
	// regressed, only the gate ignores it.
	if v := trendVerdict(t, sum); v != benchgate.VerdictRegressed {
		t.Fatalf("trend verdict = %s, want regressed preserved", v)
	}
	found := false
	for _, f := range sum.Findings {
		if f.File == "corpus-history" && strings.HasPrefix(f.Detail, "advisory:") {
			found = true
			if f.Regression {
				t.Fatalf("advisory finding still marked regression: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("no advisory-prefixed corpus finding in %+v", sum.Findings)
	}
}

func TestRunCorpusUnknownGridErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCorpus([]string{"-grid", "nope", "-store", t.TempDir()}, &buf); err == nil {
		t.Fatal("unknown grid accepted")
	}
}
