package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchgate"
	"repro/internal/experiments"
)

func TestRunTable2AndFig4(t *testing.T) {
	var buf bytes.Buffer
	for _, target := range []string{"table2", "fig4"} {
		if err := run(target, true, "", &buf); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Intel i9-10900K") || !strings.Contains(out, "fig4") {
		t.Fatalf("output missing content: %q", out)
	}
}

func TestRunTraceWritesTrace(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("trace", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cake", "goto", "CoV", "trace.json"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace output missing %q in %q", want, buf.String())
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Fatal("trace.json is not a Chrome trace")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("trace wrote more than trace.json: %v", entries)
	}
}

func TestRunUnknownTarget(t *testing.T) {
	if err := run("fig99", true, "", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestRunTrioQuickWithCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("fig11", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig11a.csv", "fig11b.csv", "fig11c.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		if !strings.Contains(string(data), "cores") {
			t.Fatalf("%s lacks header", f)
		}
	}
	if !strings.Contains(buf.String(), "ARM v8 Cortex A53") {
		t.Fatal("trio output missing platform")
	}
}

func TestRunFig8Quick(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("fig8", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio >= 1.00x") {
		t.Fatal("fig8 coverage summary missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8d.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestShortName(t *testing.T) {
	var buf bytes.Buffer
	if err := run("fig9", true, "", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatal("fig9 output missing")
	}
}

func TestRunCheckCandidateSelfComparePasses(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 100) // the newest epoch repeats the one before it
	var buf bytes.Buffer
	if err := runCheck([]string{"-corpus", store}, &buf); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "benchmark gate: OK") {
		t.Fatalf("missing OK verdict:\n%s", out)
	}
	for _, inv := range benchgate.Invariants {
		if !strings.Contains(out, inv.Name) {
			t.Fatalf("no verdict for invariant %s:\n%s", inv.Name, out)
		}
	}
}

func TestRunCheckCandidateRegressionFails(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 100, func(c *experiments.CorpusCell) {
		if c.Key() == "tiny/batch-32/f32" {
			c.RunRates = []float64{100, 100, 100, 100, 100} // batched no faster than looped
		}
	})
	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store}, &buf)
	if err == nil {
		t.Fatalf("broken batch invariant passed:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regression") || !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("err = %v, output:\n%s", err, buf.String())
	}
}

func TestRunCheckMissingBaselineErrors(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "nowhere")} {
		if err := runCheck([]string{"-corpus", dir}, &bytes.Buffer{}); err == nil {
			t.Fatalf("store %s without epochs accepted", dir)
		}
	}
}

func TestRunCheckBadFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCheck([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
