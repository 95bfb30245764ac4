package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

func TestRunGemmWritesJSON(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("gemm", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pipelined", "pipelined+cache", "skewed-small-M", "overlap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gemm table missing %q in %q", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_gemm.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"gflops"`, `"pack_share"`, `"reused_a_elems"`, `"overlap_nanos"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("BENCH_gemm.json missing %s", want)
		}
	}
}

func TestRunServeWritesJSON(t *testing.T) {
	dir := t.TempDir()
	oldDur, oldClients := serveDur, serveClients
	serveDur, serveClients = 300*time.Millisecond, 4
	defer func() { serveDur, serveClients = oldDur, oldClients }()
	var buf bytes.Buffer
	if err := run("serve", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"engine", "serialized", "tiny", "GEMMs/s", "dispatch A/B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve table missing %q in %q", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"speedup"`, `"gemms_per_sec"`, `"tiny_direct_p50_micros"`, `"client_mix"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("BENCH_serve.json missing %s", want)
		}
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

func writeGateArtifacts(t *testing.T, dir, gemm, timeline string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_gemm.json"), []byte(gemm), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_bwtimeline.json"), []byte(timeline), 0o644); err != nil {
		t.Fatal(err)
	}
}

const gateGemmJSON = `{"cores":2,"rows":[
  {"shape":"square-480","mode":"sync","gflops":10},
  {"shape":"square-480","mode":"pipelined","gflops":12}
]}`

const gateTimelineJSON = `{"m":32,"k":512,"n":256,"cores":2,
  "cake":{"executor":"cake","gflops":6,"cov":0.4},
  "goto":{"executor":"goto","gflops":5,"cov":1.5}}`

func TestRunCheckCandidateSelfComparePasses(t *testing.T) {
	dir := t.TempDir()
	writeGateArtifacts(t, dir, gateGemmJSON, gateTimelineJSON)
	var buf bytes.Buffer
	if err := runCheck([]string{"-baseline", dir, "-candidate", dir}, &buf); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "benchmark gate: OK") {
		t.Fatalf("missing OK verdict:\n%s", buf.String())
	}
}

func TestRunCheckCandidateRegressionFails(t *testing.T) {
	baseDir, candDir := t.TempDir(), t.TempDir()
	writeGateArtifacts(t, baseDir, gateGemmJSON, gateTimelineJSON)
	regressed := strings.Replace(gateGemmJSON, `"mode":"pipelined","gflops":12`, `"mode":"pipelined","gflops":6`, 1)
	writeGateArtifacts(t, candDir, regressed, gateTimelineJSON)
	var buf bytes.Buffer
	err := runCheck([]string{"-baseline", baseDir, "-candidate", candDir}, &buf)
	if err == nil {
		t.Fatalf("halved throughput passed:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regression") || !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("err = %v, output:\n%s", err, buf.String())
	}
}

func TestRunCheckMissingBaselineErrors(t *testing.T) {
	if err := runCheck([]string{"-baseline", t.TempDir(), "-candidate", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty baseline dir accepted")
	}
}

func TestRunCheckBadFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCheck([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
