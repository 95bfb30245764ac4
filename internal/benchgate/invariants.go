package benchgate

import (
	"fmt"

	"repro/internal/experiments"
)

// The invariant table: each feature's performance claim as a statistic over
// per-run values computed from cells of one corpus epoch. The two cells of
// an invariant are measured back to back within every run, so their ratio
// largely cancels host drift that moves absolute numbers between epochs.

// The bounds. Each is absolute — the ratio is the claim under test — and
// set below healthy measurements, so only the feature breaking, not
// machine noise, can trip it.
const (
	// MinResidentSpeedup: serving a skewed small-M activation GEMM from
	// pre-packed transposed weights must beat per-call PackBT by this factor.
	MinResidentSpeedup = 1.5
	// MinBatchSpeedup: 32 tiny shared-weight GEMMs as one GemmBatch (one
	// admission, one lease, one B pack) must beat 32 single requests.
	MinBatchSpeedup = 1.3
	// MinServeSpeedup: the tiered engine must beat one mutex-serialized
	// full-CAKE executor on the mixed serving workload.
	MinServeSpeedup = 2.0
	// tinyABSlack is the allowed relative excess of the direct tiny path's
	// p50 over the full-CAKE path's; it only absorbs timer jitter.
	tinyABSlack = 0.10
	// MaxObsOverhead: the flight recorder, tier histograms and SLO windows
	// must cost under 2% of serving throughput.
	MaxObsOverhead = 0.02
)

// Metric is what an invariant computes per run from its cells.
type Metric string

const (
	MetricRate     Metric = "gemms/s ratio" // num/den GEMMs/s
	MetricOverhead Metric = "overhead"      // (den − num)/den GEMMs/s
	MetricP50      Metric = "p50 ratio"     // num/den median latency
	MetricBWCoV    Metric = "bw-cov ratio"  // num/den bandwidth-timeline CoV
	MetricRecords  Metric = "records"       // num's committed flight-recorder records
)

// Pick is which run's value an invariant judges: the most or the least
// favourable one for its bound, or the median run.
type Pick string

const (
	PickBest   Pick = "best"
	PickWorst  Pick = "worst"
	PickMedian Pick = "median"
)

// Invariant is one row of the table.
type Invariant struct {
	Name     string
	Num, Den string // cell keys (Den unused for MetricRecords)
	Metric   Metric
	Pick     Pick
	Op       string // how the value must compare with Bound: ">=", "<=" or "<"
	Bound    float64
}

// Invariants is the table, one row per claim.
var Invariants = []Invariant{
	{Name: "resident", Num: "serve-384/resident-bt/f64", Den: "serve-384/fresh-bt/f64",
		Metric: MetricRate, Pick: PickBest, Op: ">=", Bound: MinResidentSpeedup},
	{Name: "batch", Num: "tiny/batch-32/f32", Den: "tiny/loop-32/f32",
		Metric: MetricRate, Pick: PickBest, Op: ">=", Bound: MinBatchSpeedup},
	{Name: "obs-overhead", Num: "mix/recorder-on/f32", Den: "mix/recorder-off/f32",
		Metric: MetricOverhead, Pick: PickBest, Op: "<=", Bound: MaxObsOverhead},
	{Name: "obs-records", Num: "mix/recorder-on/f32", Metric: MetricRecords, Op: ">=", Bound: 1},
	{Name: "serve", Num: "mix/engine/f32", Den: "mix/serialized/f32",
		Metric: MetricRate, Pick: PickWorst, Op: ">=", Bound: MinServeSpeedup},
	{Name: "serve-tiny-ab", Num: "tiny-mix/direct/f32", Den: "tiny-mix/cake/f32",
		Metric: MetricP50, Pick: PickWorst, Op: "<=", Bound: 1 + tinyABSlack},
	{Name: "bandwidth", Num: "skewed/trace-cake/f32", Den: "skewed/trace-goto/f32",
		Metric: MetricBWCoV, Pick: PickMedian, Op: "<", Bound: 1},
}

// CheckInvariants judges every invariant on one epoch, one finding each.
func CheckInvariants(e *experiments.CorpusEpoch) []Finding {
	out := make([]Finding, 0, len(Invariants))
	for _, inv := range Invariants {
		out = append(out, inv.Check(e))
	}
	return out
}

// Check judges the invariant on one epoch. A missing cell, or fewer than
// experiments.GatedRuns paired runs, is a regression: the claim was not
// measured.
func (inv Invariant) Check(e *experiments.CorpusEpoch) Finding {
	f := Finding{File: "invariant", Key: inv.Name, Metric: string(inv.Pick) + "-run " + string(inv.Metric), Limit: inv.Bound}
	if inv.Metric == MetricRecords {
		f.Metric = string(inv.Metric)
	}
	vals, err := inv.perRun(e)
	if err != nil {
		f.Regression = true
		f.Detail = err.Error()
		return f
	}
	// The most favourable run is the largest value for a floor and the
	// smallest for a ceiling.
	upper := inv.Op[0] == '<'
	switch {
	case inv.Pick == PickMedian:
		f.Candidate = experiments.Median(vals)
	case (inv.Pick == PickBest) != upper:
		f.Candidate = best(vals)
	default:
		f.Candidate = floor(vals)
	}
	switch v := f.Candidate; inv.Op {
	case ">=":
		f.Regression = v < inv.Bound
	case "<=":
		f.Regression = v > inv.Bound
	default: // "<"
		f.Regression = v >= inv.Bound
	}
	f.Detail = fmt.Sprintf("%s over %d run(s) of %s must be %s %g", f.Metric, len(vals), inv.cells(), inv.Op, inv.Bound)
	return f
}

func (inv Invariant) cells() string {
	if inv.Metric == MetricRecords {
		return inv.Num
	}
	return inv.Num + " vs " + inv.Den
}

// perRun computes the invariant's value for every paired run.
func (inv Invariant) perRun(e *experiments.CorpusEpoch) ([]float64, error) {
	num, ok := e.CellByKey(inv.Num)
	if !ok {
		return nil, fmt.Errorf("cell %s missing from epoch %04d", inv.Num, e.Seq)
	}
	if inv.Metric == MetricRecords {
		return []float64{float64(num.Records)}, nil
	}
	den, ok := e.CellByKey(inv.Den)
	if !ok {
		return nil, fmt.Errorf("cell %s missing from epoch %04d", inv.Den, e.Seq)
	}
	a, b := inv.series(num), inv.series(den)
	if len(a) < experiments.GatedRuns || len(a) != len(b) {
		return nil, fmt.Errorf("%s vs %s: %d and %d runs, want %d or more paired runs",
			inv.Num, inv.Den, len(a), len(b), experiments.GatedRuns)
	}
	vals := make([]float64, len(a))
	for i := range a {
		if b[i] <= 0 {
			return nil, fmt.Errorf("%s run %d: non-positive denominator %g", inv.Den, i, b[i])
		}
		if inv.Metric == MetricOverhead {
			vals[i] = (b[i] - a[i]) / b[i]
		} else {
			vals[i] = a[i] / b[i]
		}
	}
	return vals, nil
}

// series is the per-run series a metric reads from a cell.
func (inv Invariant) series(c experiments.CorpusCell) []float64 {
	switch inv.Metric {
	case MetricP50:
		return c.RunP50
	case MetricBWCoV:
		return c.RunBWCoV
	default:
		return c.RunRates
	}
}

// FloorDrop is the throughput floor's allowed drop: a floored cell's best
// run must reach (1 − FloorDrop) × the worst run of the same cell in the
// previous same-host epoch. It keeps the absolute-throughput rule of the
// per-feature gates verbatim beside the trend detectors, whose step band can
// reach 3 × CoV and which never gate a cell judged noisy.
const FloorDrop = 0.20

// FlooredCells are the cells carrying the throughput floor.
var FlooredCells = []string{
	// executor with and without a panel cache
	"square/exec/f32", "square/exec-cache/f32", "skewed/exec/f32", "skewed/exec-cache/f32",
	// traced bandwidth pair
	"skewed/trace-cake/f32", "skewed/trace-goto/f32",
	// resident weights
	"tiny/resident-bt/f32", "small/resident-bt/f32", "serve-384/resident-bt/f64", "batch-576/resident-bt/f32",
	// batched dispatch
	"tiny/batch-4/f32", "tiny/batch-32/f32", "tiny/batch-256/f32",
	"small/batch-4/f32", "small/batch-32/f32", "small/batch-256/f32",
	// mixed serving, total and per tier
	"mix/engine/f32", "mix-tiny/engine/f32", "mix-small/engine/f32", "mix-large/engine/f32",
	// observability on
	"mix/recorder-on/f32",
}

// The bandwidth ceiling: CoVCeilingCell's best (lowest) per-run
// bandwidth CoV must stay at or below CoVSlack growth plus CoVFloor over the
// worst run of the previous same-host epoch. Only CAKE's flatness is the
// claim; GOTO's spikes are the paper's contrast.
const (
	CoVCeilingCell = "skewed/trace-cake/f32"
	CoVSlack       = 0.50
	CoVFloor       = 0.10
)
