// Command perfbench is the repository's end-to-end benchmark. It drives the
// engine, the core executor, the worker pool, the packing layer, the
// microkernel and the convnet through their public functions only, checks
// every measured output against a reference, and prints one JSON result as
// the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 7 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is the
// separate traced run: it records spans around every layer call, replays
// requests one layer down, runs the layer and host probes, and prints the
// per-layer metrics. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/matrix"
	"repro/internal/platform"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark invocation shares with its workload.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	cores   int
	speed   *speedProbe // reference bursts between measured calls
	tally   tally
	metrics map[string]metric
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) notef(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// rng returns a generator for one named input stream of this run, so every
// operand is a function of --seed alone.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

var workloads = map[string]func(*run) error{
	"square-large": runSquareLarge,
	"serve-mixed":  runServeMixed,
	"dnn-batch":    runDNNBatch,
}

func main() {
	workload := flag.String("workload", "", "square-large | serve-mixed | dnn-batch")
	seed := flag.Int64("seed", 1, "seed every operand is generated from")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		out: *out, cores: runtime.NumCPU(), speed: newSpeedProbe(), metrics: map[string]metric{},
	}
	r.notef("workload=%s seed=%d seconds=%d trace=%d cores=%d", *workload, *seed, *seconds, *trace, r.cores)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := result{
		Correct:   r.tally.failed() == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed(),
		Metrics:   r.metrics,
	}
	r.notef("attempted=%d errors=%d oracle_mismatches=%d fail_ratio=%g",
		r.tally.attempted, r.tally.errors, r.tally.mismatches, r.tally.failRatio())
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.notef("%-28s %14.6g %s", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
}

// model is the fixed platform every engine and executor is planned on: a
// 2 MiB LLC so tier dispatch is the same on every host (the real LLC may be
// large enough to fold every shape into the small tier), and one core per
// CPU the process may use.
func model(cores int) *platform.Platform {
	return &platform.Platform{
		Name:          "perfbench",
		Cores:         cores,
		L1Bytes:       32 << 10,
		L2Bytes:       256 << 10,
		LLCBytes:      2 << 20,
		DRAMBytes:     8 << 30,
		DRAMBW:        25e9,
		ClockHz:       3e9,
		FlopsPerCycle: 4,
	}
}

func randMatrix[T matrix.Scalar](rng *rand.Rand, rows, cols int) *matrix.Matrix[T] {
	m := matrix.New[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(2*rng.Float64() - 1)
	}
	return m
}

// Set-up is timed in setupSamples samples. A sample runs a group of builds
// back to back, as many as make it last at least setupSampleMin (at most
// setupMaxGroup), so a build of a few microseconds is not timed alone.
const (
	setupSamples   = 200
	setupSampleMin = 200 * time.Microsecond
	setupMaxGroup  = 64
)

// timeSetup builds the workload's program state over and over and returns
// the median time of one build in seconds. Every build but the last is torn
// down with the closer it returns; the last one's state is what the workload
// then measures. A build constructs state only (engines, executors,
// networks, registered operands): the calls that warm it up are made
// afterwards, untimed, because the measured window times those calls
// already.
func (r *run) timeSetup(build func() (closer func(), err error)) (float64, error) {
	// sample runs k builds back to back, starting from a collected heap so
	// that whether a GC cycle lands inside it does not depend on the samples
	// before it, and returns the time per build. It tears every build down
	// but, when keep is set, the last.
	sample := func(k int, keep bool) (time.Duration, error) {
		runtime.GC()
		closers := make([]func(), k)
		t0 := time.Now()
		for i := range closers {
			var err error
			if closers[i], err = build(); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0) / time.Duration(k)
		for i, c := range closers {
			if c != nil && !(keep && i == k-1) {
				c()
			}
		}
		return d, nil
	}
	// Five single builds, not kept, pay one-time initialisation; the
	// fastest sizes the group.
	fastest := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		d, err := sample(1, false)
		if err != nil {
			return 0, err
		}
		fastest = min(fastest, d)
	}
	group := min(setupMaxGroup, int(setupSampleMin/max(fastest, 1))+1)
	ds := make([]float64, setupSamples)
	for i := range ds {
		r.speed.tick()
		d, err := sample(group, i == len(ds)-1)
		if err != nil {
			return 0, err
		}
		ds[i] = d.Seconds()
	}
	sort.Float64s(ds)
	r.notef("set-up: %d samples of %d builds, per build p25 %.7fs, median %.7fs, p75 %.7fs",
		len(ds), group, ds[len(ds)/4], median(ds), ds[3*len(ds)/4])
	return median(ds), nil
}

// allocatedBytes returns the bytes allocated on the Go heap since the
// process started. Over a measured window, in which the benchmark itself
// allocates nothing, the difference divided by the requests is
// alloc_kib_per_req: the program's allocation volume per request, which sets
// its GC load.
func allocatedBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveHeapMB collects garbage and returns the live Go heap in MiB. Two
// collections empty the lease caches (sync.Pool needs two to drop an
// entry), so whether a lease happened to be pooled does not move the figure.
//
// mem.retained_mb is the live heap after a traced run's untraced half less
// the live heap read once the benchmark's own data (operands, references,
// output buffers, histograms) was generated and before the program state was
// built: what the program still holds — engine and network state, registered
// operands, reqtrace snapshots, leaks. Callers keep their own data alive past
// the second read.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setEndToEnd publishes a measured window's end-to-end metrics: set-up time
// (seconds), useful GFLOP/s, requests per second and KiB allocated per
// request, and the latencies in h (see latencyMetrics). Every time and rate
// is scaled to the reference host speed (see refprobe.go); the raw figures
// are noted.
func (r *run) setEndToEnd(label string, h *hist, maxQ, setup, gflops, reqPerS, allocKiB float64) {
	s := r.speed.scale()
	r.notef("reference work: %d bursts, median %.4g GFLOP/s; times scaled by %.4f to the %g GFLOP/s reference",
		len(r.speed.rates), median(r.speed.rates), s, refRate)
	r.notef("raw: setup %.6gs, gflops %.5g, req_per_s %.6g", setup, gflops, reqPerS)
	r.set("setup_s", "s", setup*s)
	r.set("gflops", "GFLOP/s", gflops/s)
	r.set("req_per_s", "1/s", reqPerS/s)
	r.set("alloc_kib_per_req", "KiB", allocKiB)
	r.latencyMetrics(label, h, maxQ, s)
}

// latencyMetrics sets p50_us and tail_us from h, multiplied by scale, and
// notes the raw tail level and sample count. The tail is chosen by
// tailLevel from the ladder rungs up to maxQ: a workload fixes maxQ and runs
// long enough to reach it, so a faster program cannot change which
// percentile the metric reports.
func (r *run) latencyMetrics(label string, h *hist, maxQ, scale float64) {
	var ladder []float64
	for _, q := range tailLadder {
		if q <= maxQ {
			ladder = append(ladder, q)
		}
	}
	q, ok := tailLevel(h.n, ladder)
	if !ok {
		q = 0.5
	}
	r.notef("%s latency: n=%d p50=%.2fus p%g=%.2fus", label, h.n, h.quantile(0.5)/1e3, 100*q, h.quantile(q)/1e3)
	if r.trace {
		return
	}
	r.set("p50_us", "us", scale*h.quantile(0.5)/1e3)
	r.set("tail_us", "us", scale*h.quantile(q)/1e3)
}

// flopsOf returns 2·m·n·k.
func flopsOf(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// spanPath is where a traced run writes its spans.
func (r *run) spanPath(workload string) string {
	return filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, r.seed))
}

// share returns num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
