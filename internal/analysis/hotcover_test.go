package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fixturePkgPath is the import path `go list` resolves for a fixture
// directory; profile frames must spell functions relative to it.
const hotcoverPkgPath = "repro/internal/analysis/testdata/src/hotcover"

// writeHotcoverCorpus synthesizes a corpus store with one epoch whose CPU
// profile references the hotcover fixture. Shares (out of 1090 total):
// every named frame except Warm (0.9%) clears the 2% default threshold.
func writeHotcoverCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	epoch := filepath.Join(dir, "0001-deadbeef")
	if err := os.MkdirAll(epoch, 0o755); err != nil {
		t.Fatal(err)
	}
	frames := []experiments.Frame{
		{Name: hotcoverPkgPath + ".HotAnnotated", Value: 300},
		{Name: hotcoverPkgPath + ".HotUnannotated", Value: 250},
		{Name: hotcoverPkgPath + ".(*Ring).Push", Value: 120},
		{Name: hotcoverPkgPath + ".HotGeneric[go.shape.float64]", Value: 100},
		{Name: hotcoverPkgPath + ".HotExempt.func1", Value: 90},
		{Name: hotcoverPkgPath + ".Deleted", Value: 80}, // no such decl anymore
		{Name: "runtime.memmove", Value: 50},            // outside the module
		{Name: hotcoverPkgPath + ".Warm", Value: 10},
		{Name: hotcoverPkgPath + ".HotAsm", Value: 30},
		{Name: hotcoverPkgPath + ".HotAsmBareExempt", Value: 30},
		{Name: hotcoverPkgPath + ".HotAsmExempt", Value: 30},
	}
	if err := experiments.WriteProfile(filepath.Join(epoch, "cpu-test.pprof"), "cpu", "nanoseconds", frames); err != nil {
		t.Fatal(err)
	}
	// A heap profile in the same epoch must be ignored: allocation sites
	// (constructors, growth) are not time and must not drive coverage.
	heap := []experiments.Frame{{Name: hotcoverPkgPath + ".Warm", Value: 1 << 30}}
	if err := experiments.WriteProfile(filepath.Join(epoch, "heap-test.pprof"), "inuse_space", "bytes", heap); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestHotCoverFixture pins the analyzer against the annotated fixture: hot
// functions (plain, method, generic, closure-attributed) must be demanded
// or accepted exactly as the `// want` comments say.
func TestHotCoverFixture(t *testing.T) {
	stats, err := LoadHotStats(writeHotcoverCorpus(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Empty() {
		t.Fatal("synthetic corpus parsed as empty")
	}
	problems, err := FixtureDiff(NewHotCover(stats), FixtureDir("hotcover"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestHotCoverEmptyStore: a fresh clone has no corpus history; the pass must
// skip with a notice and report nothing, never fail.
func TestHotCoverEmptyStore(t *testing.T) {
	stats, err := LoadHotStats(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Empty() {
		t.Fatalf("want empty stats, got %d profiles", stats.Profiles)
	}
	if len(stats.Notices) != 1 || !strings.Contains(stats.Notices[0], "no CPU profiles") {
		t.Fatalf("want a single empty-store notice, got %q", stats.Notices)
	}
	pkgs, err := LoadSyntax(FixtureDir("hotcover"), ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Check(pkgs, []*Analyzer{NewHotCover(stats)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("empty store must report nothing, got %v", diags)
	}
}

// TestHotCoverCorruptProfiles: truncated or garbage pprof files are skipped
// with a notice while intact profiles in the same store keep aggregating.
func TestHotCoverCorruptProfiles(t *testing.T) {
	dir := writeHotcoverCorpus(t)
	epoch := filepath.Join(dir, "0002-cafef00d")
	if err := os.MkdirAll(epoch, 0o755); err != nil {
		t.Fatal(err)
	}
	// Garbage bytes: not gzip, not proto.
	if err := os.WriteFile(filepath.Join(epoch, "cpu-garbage.pprof"), []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncated gzip: valid magic, cut mid-stream.
	data, err := experiments.MarshalProfile("cpu", "nanoseconds", []experiments.Frame{{Name: "x", Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(epoch, "cpu-truncated.pprof"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	stats, err := LoadHotStats(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Profiles != 1 {
		t.Fatalf("want 1 intact CPU profile aggregated, got %d", stats.Profiles)
	}
	if len(stats.Notices) != 2 {
		t.Fatalf("want 2 skip notices (garbage + truncated), got %q", stats.Notices)
	}
	for _, n := range stats.Notices {
		if !strings.Contains(n, "skipping unreadable profile") {
			t.Errorf("notice %q does not name the skipped profile", n)
		}
	}
	// The intact profile still drives the same fixture verdicts.
	problems, err := FixtureDiff(NewHotCover(stats), FixtureDir("hotcover"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestHotCoverDeletedFunction: frames referencing functions that no longer
// exist (deleted since the epoch was captured) are aggregated but produce no
// finding — coverage is judged against declarations, not history.
func TestHotCoverDeletedFunction(t *testing.T) {
	stats, err := LoadHotStats(writeHotcoverCorpus(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	deleted := stats.Funcs[hotcoverPkgPath+".Deleted"]
	if deleted == nil || deleted.MaxShare < stats.Threshold {
		t.Fatal("synthetic Deleted frame should aggregate as hot")
	}
	pkgs, err := LoadSyntax(FixtureDir("hotcover"), ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Check(pkgs, []*Analyzer{NewHotCover(stats)})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "Deleted") {
			t.Errorf("deleted function produced a finding: %s", d)
		}
	}
}

func TestNormalizeFrame(t *testing.T) {
	cases := map[string]string{
		"repro/internal/kernel.kernel8x8[go.shape.float64]":                  "repro/internal/kernel.kernel8x8",
		"repro/internal/matrix.(*Matrix[go.shape.float32]).At":               "repro/internal/matrix.(*Matrix).At",
		"repro/internal/core.(*Executor[go.shape.float64]).submitPack.func1": "repro/internal/core.(*Executor).submitPack",
		"repro/internal/engine.runPooled[go.shape.float32].func2.1":          "repro/internal/engine.runPooled",
		"runtime.memmove":                     "runtime.memmove",
		"example.com/m.F[go.shape.[]uint8]":   "example.com/m.F",
		"repro/internal/obs.(*Recorder).Span": "repro/internal/obs.(*Recorder).Span",
	}
	for in, want := range cases {
		if got := NormalizeFrame(in); got != want {
			t.Errorf("NormalizeFrame(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHotStatsHotOrder: Hot() returns threshold-clearing functions hottest
// first, so reports and -json output lead with the biggest gap.
func TestHotStatsHotOrder(t *testing.T) {
	stats, err := LoadHotStats(writeHotcoverCorpus(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := stats.Hot()
	if len(hot) == 0 {
		t.Fatal("no hot functions")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].MaxShare > hot[i-1].MaxShare {
			t.Errorf("Hot() out of order at %d: %f > %f", i, hot[i].MaxShare, hot[i-1].MaxShare)
		}
	}
	if hot[0].Name != hotcoverPkgPath+".HotAnnotated" {
		t.Errorf("hottest = %s, want HotAnnotated", hot[0].Name)
	}
}
