package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/convnet"
	"repro/internal/core"
	"repro/internal/matrix"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int64
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // exactly 10 beyond p99
		{999, 0.95, true},  // 9.99 beyond p99 is not enough
		{200, 0.95, true},
		{100, 0.90, true},
		{40, 0.75, true},
		{39, 0.50, true},
		{20, 0.50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailLevel(c.n, tailLadder)
		if got != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	for _, q := range tailLadder {
		n := minSamplesFor(q)
		if got, _ := tailLevel(n, tailLadder); got < q {
			t.Errorf("minSamplesFor(%v) = %d, but tailLevel there is %v", q, n, got)
		}
		if got, _ := tailLevel(n-1, tailLadder); got >= q {
			t.Errorf("minSamplesFor(%v) = %d is not minimal: tailLevel(%d) = %v", q, n, n-1, got)
		}
	}
}

func TestLatencyMetricsReportTailAndCount(t *testing.T) {
	h := newHist()
	for us := int64(1); us <= 1000; us++ {
		h.add(us * 1000)
	}
	if h.n != 1000 {
		t.Fatalf("count = %d, want 1000", h.n)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.75, 750}, {0.99, 990}} {
		if got := h.quantile(c.q) / 1e3; math.Abs(got-c.want)/c.want > 0.006 {
			t.Errorf("quantile(%v) = %.2fus, want %.0fus within one bucket", c.q, got, c.want)
		}
	}
	for _, c := range []struct{ maxQ, scale, want float64 }{{0.99, 1, 990}, {0.75, 1, 750}, {0.99, 0.5, 495}} {
		r := &run{metrics: map[string]metric{}}
		r.latencyMetrics("test", h, c.maxQ, c.scale)
		if got := r.metrics["tail_us"].Value; math.Abs(got-c.want)/c.want > 0.006 {
			t.Errorf("maxQ %v scale %v: tail_us = %.2f, want %.0f", c.maxQ, c.scale, got, c.want)
		}
		if u := r.metrics["p50_us"].Unit; u != "us" {
			t.Errorf("p50_us unit = %q", u)
		}
	}
}

func TestHistMergeKeepsCounts(t *testing.T) {
	a, b := newHist(), newHist()
	a.add(100)
	b.add(300)
	b.add(0) // clamps to the first bucket rather than dropping
	a.merge(b)
	if a.n != 3 || a.sumNs != 401 {
		t.Fatalf("merged n=%d sum=%v, want 3 and 401", a.n, a.sumNs)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "engine", Start: 0, End: 100, Parent: -1},
		{Name: "executor", Start: 100, End: 170, Parent: 0}, // replayed after its parent
		{Name: "pack", Start: 170, End: 180, Parent: 1},     // replayed below the executor
		{Name: "kernel", Start: 180, End: 230, Parent: 1},
		{Name: "executor", Start: 300, End: 390, Parent: -1}, // a root with nested children
		{Name: "pack", Start: 310, End: 330, Parent: 4},
		{Name: "kernel", Start: 330, End: 380, Parent: 4},
		{Name: "engine", Start: 400, End: 410, Parent: -1},   // not replayed
		{Name: "parallel", Start: 500, End: 510, Parent: -1}, // children outlast a parallel parent
		{Name: "kernel", Start: 510, End: 530, Parent: 8},
	}
	want := []int64{100 - 70, 70 - 10 - 50, 10, 50, 90 - 20 - 50, 20, 50, 10, 0, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d %s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}

	// Only trees whose root has children count as replayed: span 7 is left
	// out, and the two recorders' samples add up.
	second := []span{spans[8], spans[9]}
	second[1].Parent = 0
	sp := replayed([]*recorder{{spans: spans[:8]}, {spans: second}})
	if sp.wall != 100+90+10 || sp.outer != 30+20+0 {
		t.Errorf("replayed wall %d outer %d, want 200 and 50", sp.wall, sp.outer)
	}
	if sp.self["engine"] != 30 || sp.self["kernel"] != 50+50+20 || sp.self["pack"] != 30 {
		t.Errorf("replayed self = %v", sp.self)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	if id := r.begin("x", -1, 1); id != -1 {
		t.Fatalf("nil begin = %d", id)
	}
	r.end(-1)
	if id := r.add("x", -1, 1, time.Now(), time.Now()); id != -1 {
		t.Fatalf("nil add = %d", id)
	}
}

func TestTallyCountsErrorsAndMismatches(t *testing.T) {
	var tl tally
	boom := errors.New("boom")
	tl.record(nil, true)   // ok
	tl.record(boom, true)  // error
	tl.record(nil, false)  // oracle mismatch
	tl.record(boom, false) // error and mismatch: one failure
	if tl.attempted != 4 || tl.errors != 2 || tl.mismatches != 1 || tl.failed() != 3 {
		t.Fatalf("tally = %+v failed=%d", tl, tl.failed())
	}
	if got := tl.failRatio(); got != 0.75 {
		t.Fatalf("failRatio = %v, want 0.75", got)
	}
	var other tally
	other.record(nil, true)
	tl.add(other)
	if tl.attempted != 5 || tl.failRatio() != 0.6 {
		t.Fatalf("after add: %+v ratio %v", tl, tl.failRatio())
	}
	if (tally{}).failRatio() != 0 {
		t.Fatal("empty tally must report 0")
	}
}

func TestOracleRejectsPoisonAndOffByOne(t *testing.T) {
	a := matrix.FromSlice(2, 3, []float32{1, -2, 3, 0.5, 0.25, -1})
	b := matrix.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	ref, tol := naiveReference(a, b), gemmTolerance(a, b)
	got := ref.Clone()
	if !withinRows(got, ref, tol) {
		t.Fatal("reference must match itself")
	}
	poison(got)
	if withinRows(got, ref, tol) {
		t.Fatal("a poisoned (unwritten) output must not match")
	}
	got = ref.Clone()
	got.Data[3]++
	if withinRows(got, ref, tol) {
		t.Fatal("an output off by 1 must not match")
	}
	if tol[0] <= 0 || tol[0] > 1e-4 {
		t.Fatalf("tolerance %g is not a k·ε bound for k=3", tol[0])
	}
}

func TestDNNOracleAcceptsNetworkRejectsPerturbation(t *testing.T) {
	r := &run{seed: 5}
	rng := r.rng(0)
	specs := []convnet.ConvSpec{
		{InC: 3, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
	pools := []bool{false, true}
	layers := make([]*convnet.Layer[float32], len(specs))
	for i, s := range specs {
		layers[i] = &convnet.Layer[float32]{Spec: s, Weights: randMatrix[float32](rng, s.OutC, s.InC*9), ReLU: true}
	}
	img := convnet.NewTensor[float32](3, 6, 6)
	for i := range img.Data {
		img.Data[i] = float32(2*rng.Float64() - 1)
	}
	cfg, err := core.Plan(model(1), 8, 36, 36, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	net, err := convnet.NewNetwork(ex, layers, pools)
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := net.ForwardBatch([]*convnet.Tensor[float32]{img})
	if err != nil {
		t.Fatal(err)
	}
	o, err := newDNNOracle(layers, pools, img)
	if err != nil {
		t.Fatal(err)
	}
	if !o.matches(outs[0]) {
		t.Fatal("network output must match its own oracle")
	}
	outs[0].Data[len(outs[0].Data)/2] += 0.01
	if o.matches(outs[0]) {
		t.Fatal("an output perturbed by 0.01 must not match")
	}
}

func TestEndToEndScaledToReferenceSpeed(t *testing.T) {
	h := newHist()
	for i := 0; i < 100; i++ {
		h.add(10_000) // 10 us
	}
	// Bursts at twice the reference rate: the host period is twice as fast
	// as the reference, so times double and rates halve.
	r := &run{metrics: map[string]metric{}, speed: &speedProbe{rates: []float64{2 * refRate, 1, 2 * refRate, 100}}}
	if s := r.speed.scale(); s != 2 {
		t.Fatalf("scale = %v, want the median rate over refRate, 2", s)
	}
	r.setEndToEnd("test", h, 0.75, 0.001, 8, 1000, 3)
	for name, want := range map[string]float64{
		"setup_s": 0.002, "gflops": 4, "req_per_s": 500, "alloc_kib_per_req": 3, "p50_us": 20, "tail_us": 20,
	} {
		if got := r.metrics[name].Value; math.Abs(got-want)/want > 0.006 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestReferenceKernelMatchesNaive(t *testing.T) {
	p := newSpeedProbe()
	c := make([]float64, refMC*refNC)
	refBlock(p.a, p.b, c)
	for _, ij := range [][2]int{{0, 0}, {7, 9}, {refMC - 1, refNC - 1}, {64, 130}} {
		i, j := ij[0], ij[1]
		var want float64
		for k := 0; k < refKC; k++ {
			// a holds 8-row micro-panels, k-major; b holds 8-column ones.
			want += p.a[(i/8)*8*refKC+k*8+i%8] * p.b[(j/8)*8*refKC+k*8+j%8]
		}
		if got := c[i*refNC+j]; math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("c[%d][%d] = %v, want %v", i, j, got, want)
		}
	}
}
