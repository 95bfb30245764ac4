package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
)

// The performance-trajectory corpus: a declarative grid of cells run under
// one schema-versioned envelope, emitted as BENCH_corpus.json and appended
// as an epoch to the append-only history store
// (results/corpus/NNNN-<rev>.json). GEMMbench (PAPERS.md) argues GEMM
// performance claims are only meaningful as a reproducible corpus over such
// a grid. internal/benchgate reads the epoch sequence this package writes:
// its invariant table judges paired cells of one epoch, and its trend
// analyzer judges each cell against its own history.

// CorpusProtocol documents the noise discipline every epoch records in its
// metadata: scheduler and thermal noise on shared machines is one-sided (it
// only slows runs down), so the committed per-cell GFLOP/s is the MINIMUM
// across N runs — a capability floor any healthy future run can beat —
// while best/median/CoV across the same runs are kept as the cell's noise
// statistics for the trend analyzer's bands. Cells of one probe alternate
// run for run, so per-run ratios between them see the same host weather.
const CorpusProtocol = "worst-of-N: gflops is the minimum across runs (one-sided noise floor); best/median/cov across runs recorded per cell; cells of one probe are measured back to back within each run"

// GatedRuns is the least number of runs a probe carrying an invariant or a
// throughput floor takes, whatever CorpusOptions.Runs says: the paired
// statistics pick the best or worst of at least this many runs.
const GatedRuns = 5

// CorpusCell is one grid point's measurement.
type CorpusCell struct {
	Shape    string `json:"shape"`    // shape class, e.g. tiny | skewed | mix-tiny
	Scenario string `json:"scenario"` // what was timed, e.g. fresh | resident-bt | engine
	Dtype    string `json:"dtype"`    // f32 | f64
	M        int    `json:"m"`
	K        int    `json:"k"`
	N        int    `json:"n"`
	Tier     string `json:"tier"`              // engine dispatch tier, or the non-engine path timed
	Workers  int    `json:"workers,omitempty"` // serve scenario: concurrent streams
	Batch    int    `json:"batch,omitempty"`   // batch scenarios: GEMMs per GemmBatch
	Reps     int    `json:"reps"`              // GEMMs per run (0: time-boxed)
	Runs     int    `json:"runs"`              // runs in the worst-of-N protocol

	GFLOPS       float64 `json:"gflops"` // worst of runs (the committed value)
	BestGFLOPS   float64 `json:"best_gflops"`
	MedianGFLOPS float64 `json:"median_gflops"`
	CoV          float64 `json:"cov"`           // across-runs coefficient of variation
	GemmsPerSec  float64 `json:"gemms_per_sec"` // from the worst run

	// Per-run series in run order; entry r of two cells of one probe was
	// measured back to back.
	RunRates []float64 `json:"run_gemms_per_sec,omitempty"`
	RunP50   []float64 `json:"run_p50_us,omitempty"` // median GEMM latency, latency-probed cells
	RunBWCoV []float64 `json:"run_bw_cov,omitempty"` // bandwidth-timeline CoV, traced cells
	Records  int64     `json:"records,omitempty"`    // flight-recorder records committed
}

// Key identifies the cell across epochs: shape/scenario/dtype.
func (c CorpusCell) Key() string { return c.Shape + "/" + c.Scenario + "/" + c.Dtype }

// CorpusEpoch is one full grid run: the unified envelope (schema version,
// host fingerprint, git rev) plus every cell and the noise-protocol record.
// Seq is 0 until the history store assigns it on Append.
type CorpusEpoch struct {
	Envelope
	Seq      int          `json:"seq"`
	Grid     string       `json:"grid"` // full | micro
	Quick    bool         `json:"quick"`
	Protocol string       `json:"protocol"`
	Cells    []CorpusCell `json:"cells"`
	// Profiles lists pprof files captured next to this epoch (paths relative
	// to the epoch's profile directory in the store), when profiling was on.
	Profiles []string `json:"profiles,omitempty"`
}

// CellByKey returns the epoch's cell for a key, if present.
func (e *CorpusEpoch) CellByKey(key string) (CorpusCell, bool) {
	for _, c := range e.Cells {
		if c.Key() == key {
			return c, true
		}
	}
	return CorpusCell{}, false
}

// CorpusOptions configures a corpus run.
type CorpusOptions struct {
	Cores int
	Runs  int    // worst-of-N runs per cell (default 3; gated probes take at least GatedRuns)
	Grid  string // "full" (default) or "micro" — the 4-cell CI smoke grid
	Quick bool
	// ProfileDir, when set, captures a CPU and a heap pprof profile per
	// probe group into that directory (cpu-<group>.pprof, heap-<group>.pprof).
	ProfileDir string
}

// corpusShape is one declarative shape class of the grid.
type corpusShape struct {
	name    string
	m, k, n int
	reps    int // per-run GEMM count, tuned so every run is a few tens of ms
}

// corpusShapes returns the grid's shape axis. Sizes are classified against
// the fixed serve-bench platform model (servePlatform), so the tier a shape
// lands in is host-independent and the cell keys stay stable across machines.
func corpusShapes(quick bool) []corpusShape {
	shapes := []corpusShape{
		{"tiny", 8, 24, 24, 600},          // direct-microkernel tier
		{"small", 8, 320, 320, 60},        // cache-resident single-block tier
		{"large", 256, 256, 256, 4},       // full pipelined CAKE
		{"skewed", 32, 1024, 512, 3},      // §5.2.1 pack-heavy small-M class
		{"tall-skinny", 1024, 64, 32, 40}, // tall A panel, narrow output
	}
	if quick {
		shapes[1] = corpusShape{"small", 8, 192, 192, 40}
		shapes[2] = corpusShape{"large", 160, 160, 160, 4}
		shapes[3] = corpusShape{"skewed", 32, 512, 256, 4}
		shapes[4] = corpusShape{"tall-skinny", 512, 64, 32, 30}
	}
	return shapes
}

// corpusGrid expands the named grid. "micro" is the 4-cell CI smoke grid:
// tiny/fresh/f32, small/resident/f32 and the batch invariant's pair.
// "full" is the scenario×shape×dtype cross product plus the probes behind
// each benchgate invariant and throughput floor.
func corpusGrid(name string, quick bool) ([]probeSpec, error) {
	shapes := corpusShapes(quick)
	tiny, small, skewed := shapes[0], shapes[1], shapes[3]
	switch name {
	case "", "full":
	case "micro":
		return []probeSpec{
			engineSpec(tiny, "fresh", "f32", 0, false),
			engineSpec(small, "resident", "f32", 0, false),
			engineSpec(batchShape(tiny, quick), "batch+loop", "f32", 32, true),
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown corpus grid %q (full|micro)", name)
	}

	// The scenario axis, crossed with every shape and dtype: fresh packs
	// operands every call, resident serves B from pre-packed panels, serve
	// drives the same GEMM from concurrent closed-loop streams through the
	// engine's admission path.
	var out []probeSpec
	for _, sc := range []string{"fresh", "resident", "serve"} {
		for _, sh := range shapes {
			for _, dt := range []string{"f32", "f64"} {
				out = append(out, engineSpec(sh, sc, dt, 0, false))
			}
		}
	}
	// Batched dispatch: every f32 (shape, size) point is floored; tiny×32
	// is timed against the same GEMMs issued as single requests.
	for _, sh := range []corpusShape{batchShape(tiny, quick), batchShape(small, quick)} {
		for _, b := range []int{4, 32, 256} {
			kind := "batch"
			if sh.name == "tiny" && b == 32 {
				kind = "batch+loop"
			}
			out = append(out, engineSpec(sh, kind, "f32", b, true))
		}
		out = append(out, engineSpec(sh, "batch", "f64", 32, false))
	}
	// Resident weights stored transposed (N×K, the linear-layer
	// convention), each timed against per-call PackBT; serve-384/f64 carries
	// the resident invariant.
	scale := 1
	if quick {
		scale = 4
	}
	for _, rs := range []struct {
		sh corpusShape
		dt string
	}{
		{corpusShape{"tiny", 8, 24, 24, 2000}, "f32"},
		{corpusShape{"small", 8, 320, 320, 400}, "f32"},
		{corpusShape{"serve-384", 8, 384, 384, 240}, "f64"}, // large tier
		{corpusShape{"batch-576", 48, 576, 576, 60}, "f32"}, // compute-bound contrast
	} {
		rs.sh.reps = max(rs.sh.reps/scale, 8)
		out = append(out, engineSpec(rs.sh, "resident-bt", rs.dt, 0, true))
	}
	square := corpusShape{"square", 384, 384, 384, 1}
	if quick {
		square.m, square.k, square.n = 192, 192, 192
	}
	for _, sh := range []corpusShape{square, skewed} {
		out = append(out, execSpec(sh, false), execSpec(sh, true))
	}
	out = append(out, bandwidthSpec(skewed), serveMixSpec(), tinyABSpec(), obsSpec())
	return out, nil
}

// batchShape sets a batch probe's per-run GEMM count: 2048 for tiny and 512
// for small (a quarter of each under -quick), split into GemmBatch groups.
func batchShape(sh corpusShape, quick bool) corpusShape {
	sh.reps = 512
	if sh.name == "tiny" {
		sh.reps = 2048
	}
	if quick {
		sh.reps /= 4
	}
	return sh
}

// runSample is one cell's share of one probe run.
type runSample struct {
	gemms   int
	flops   float64 // total work of the run
	elapsed time.Duration
	p50     float64 // µs, latency-probed cells
	bwCoV   float64 // traced cells
	records int64   // recorder-on cell: records committed so far
}

// runFn performs one run of a probe, returning one sample per probe cell.
type runFn func() ([]runSample, error)

// probeEnv is what a probe builder may use: the corpus engine (fixed
// serve-bench platform model), the host's core count and the grid's size.
type probeEnv struct {
	e     *engine.Engine
	cores int
	quick bool
	rng   *rand.Rand
}

// probeSpec is one measurement unit of the grid: the cells it fills run for
// run, and a builder that makes the operands and returns the run function
// plus an optional cleanup.
type probeSpec struct {
	group string       // pprof bracket: cpu-<group>.pprof
	cells []CorpusCell // identity, dims and reps; measurements filled in by RunCorpus
	gated bool         // carries an invariant or a throughput floor: at least GatedRuns runs
	build func(*probeEnv) (runFn, func(), error)
}

// CorpusKeys lists the cell keys a grid produces, in measurement order,
// without measuring anything.
func CorpusKeys(grid string, quick bool) ([]string, error) {
	specs, err := corpusGrid(grid, quick)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, s := range specs {
		for _, c := range s.cells {
			keys = append(keys, c.Key())
		}
	}
	return keys, nil
}

// RunCorpus measures the grid and returns the epoch (Seq unassigned). The
// engine uses the fixed serve-bench platform model so tier dispatch — and
// therefore what each cell measures — is identical on every host; only the
// measured throughput follows the machine.
func RunCorpus(opt CorpusOptions) (*CorpusEpoch, error) {
	if opt.Cores < 1 {
		opt.Cores = runtime.GOMAXPROCS(0)
	}
	if opt.Runs < 1 {
		opt.Runs = 3
	}
	if opt.Grid == "" {
		opt.Grid = "full"
	}
	specs, err := corpusGrid(opt.Grid, opt.Quick)
	if err != nil {
		return nil, err
	}
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(opt.Cores), Name: "corpus"})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	epoch := &CorpusEpoch{
		Envelope: NewEnvelope("corpus"),
		Grid:     opt.Grid,
		Quick:    opt.Quick,
		Protocol: CorpusProtocol,
	}
	env := &probeEnv{e: e, cores: opt.Cores, quick: opt.Quick, rng: rand.New(rand.NewSource(23))}

	// Group by profile bracket so the optional pprof capture brackets one
	// group's probes per profile file.
	byGroup := map[string][]probeSpec{}
	var order []string
	for _, s := range specs {
		if _, seen := byGroup[s.group]; !seen {
			order = append(order, s.group)
		}
		byGroup[s.group] = append(byGroup[s.group], s)
	}
	for _, group := range order {
		profs, err := startScenarioProfiles(opt.ProfileDir, group)
		if err != nil {
			return nil, err
		}
		for _, spec := range byGroup[group] {
			cells, err := measureProbe(env, spec, opt.Runs)
			if err != nil {
				profs.abort()
				return nil, fmt.Errorf("experiments: corpus probe %s: %w", spec.cells[0].Key(), err)
			}
			epoch.Cells = append(epoch.Cells, cells...)
		}
		files, err := profs.finish()
		if err != nil {
			return nil, err
		}
		epoch.Profiles = append(epoch.Profiles, files...)
	}
	return epoch, nil
}

// measureProbe builds one probe, warms it with a discarded run, then takes
// the protocol's runs and summarizes each cell.
func measureProbe(env *probeEnv, spec probeSpec, runs int) ([]CorpusCell, error) {
	if spec.gated && runs < GatedRuns {
		runs = GatedRuns
	}
	run, cleanup, err := spec.build(env)
	if err != nil {
		return nil, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	if _, err := run(); err != nil { // warm operands, lease pools, resident panels
		return nil, err
	}
	samples := make([][]runSample, len(spec.cells))
	for r := 0; r < runs; r++ {
		got, err := run()
		if err != nil {
			return nil, err
		}
		for i := range spec.cells {
			samples[i] = append(samples[i], got[i])
		}
	}
	cells := make([]CorpusCell, len(spec.cells))
	for i, c := range spec.cells {
		c.Runs = runs
		if c.Tier == "" {
			elem := 4
			if c.Dtype == "f64" {
				elem = 8
			}
			c.Tier = env.e.TierFor(c.M, c.K, c.N, elem).String()
		}
		summarize(&c, samples[i])
		cells[i] = c
	}
	return cells, nil
}

// summarize fills a cell's statistics from its per-run samples (at least
// one).
func summarize(c *CorpusCell, runs []runSample) {
	gflops := make([]float64, len(runs))
	for i, s := range runs {
		ns := float64(max(s.elapsed.Nanoseconds(), 1))
		gflops[i] = s.flops / ns
		c.RunRates = append(c.RunRates, float64(s.gemms)/ns*1e9)
		if s.p50 > 0 {
			c.RunP50 = append(c.RunP50, s.p50)
		}
		if s.bwCoV > 0 {
			c.RunBWCoV = append(c.RunBWCoV, s.bwCoV)
		}
		c.Records = max(c.Records, s.records)
	}
	c.GFLOPS = slices.Min(gflops)
	c.BestGFLOPS = slices.Max(gflops)
	c.MedianGFLOPS = Median(gflops)
	c.CoV = covF(gflops)
	c.GemmsPerSec = slices.Min(c.RunRates)
}

// scenarioProfiles brackets one group's probes with pprof capture.
type scenarioProfiles struct {
	cpuFile  *os.File
	heapPath string
	names    []string
}

// startScenarioProfiles begins CPU profiling for a group when dir is
// non-empty; finish stops it and snapshots the heap.
func startScenarioProfiles(dir, scenario string) (*scenarioProfiles, error) {
	if dir == "" {
		return &scenarioProfiles{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuName := "cpu-" + scenario + ".pprof"
	f, err := os.Create(filepath.Join(dir, cpuName))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: corpus cpu profile: %w", err)
	}
	return &scenarioProfiles{
		cpuFile:  f,
		heapPath: filepath.Join(dir, "heap-"+scenario+".pprof"),
		names:    []string{cpuName, "heap-" + scenario + ".pprof"},
	}, nil
}

// finish stops the CPU profile and writes the heap snapshot, returning the
// captured file names (relative to the profile dir).
func (p *scenarioProfiles) finish() ([]string, error) {
	if p.cpuFile == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return nil, err
	}
	p.cpuFile = nil
	hf, err := os.Create(p.heapPath)
	if err != nil {
		return nil, err
	}
	runtime.GC() // settle the heap so inuse numbers are comparable across epochs
	werr := pprof.Lookup("heap").WriteTo(hf, 0)
	if cerr := hf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	return p.names, nil
}

// abort stops an in-flight CPU profile on the error path.
func (p *scenarioProfiles) abort() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
}

// Median of a sample (0 for empty input).
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// covF is the coefficient of variation (population stddev over mean).
func covF(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(vals))) / mean
}
