package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// TestTraceBenchAcceptance runs the bandwidth cells' traced pair — CAKE and
// GOTO on the same skewed shape — and checks what `cake-bench trace`
// exports and the bandwidth invariant relies on: the trace is valid Chrome
// Trace Event JSON with pack and compute spans on distinct worker lanes, no
// span was dropped, and CAKE's bandwidth timeline is flatter (lower
// coefficient of variation) than GOTO's — the empirical §3
// constant-bandwidth property. Scheduler noise can flip a single CoV
// comparison on a loaded machine, so the run retries a couple of times and
// fails only if GOTO never looks spikier.
func TestTraceBenchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trace probe runs full GEMMs")
	}
	p, err := NewBandwidthPair(4, true)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.Run(); err != nil { // warm, as the corpus probe does
		t.Fatal(err)
	}
	var cake, gotoTL Timeline
	covOK := false
	for attempt := 0; attempt < 3 && !covOK; attempt++ {
		if cake, gotoTL, err = p.Run(); err != nil {
			t.Fatal(err)
		}
		covOK = cake.CoV < gotoTL.CoV
		if !covOK {
			t.Logf("attempt %d: cake CoV %.3f not below goto CoV %.3f, retrying", attempt, cake.CoV, gotoTL.CoV)
		}
	}
	if !covOK {
		t.Errorf("CAKE bandwidth CoV %.3f never fell below GOTO's %.3f: constant-bandwidth property not visible",
			cake.CoV, gotoTL.CoV)
	}
	for _, tl := range []Timeline{cake, gotoTL} {
		t.Logf("%s: %.2f GB/s mean, %.2f peak, CoV %.3f over %d spans", tl.Executor, tl.MeanGBps, tl.PeakGBps, tl.CoV, tl.Spans)
		if tl.Spans == 0 {
			t.Fatalf("%s: empty trace", tl.Executor)
		}
		if tl.Dropped != 0 {
			t.Fatalf("%s: %d dropped spans", tl.Executor, tl.Dropped)
		}
	}

	// Export exactly as cake-bench trace does and validate the JSON.
	var buf bytes.Buffer
	err = obs.WriteChromeTrace(&buf, obs.Process{Name: "cake", Rec: cake.Rec}, obs.Process{Name: "goto", Rec: gotoTL.Rec})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid Chrome Trace Event JSON: %v", err)
	}
	// Per process: pack and compute spans must exist and land on more than
	// one worker lane.
	for pid, name := range map[int]string{1: "cake", 2: "goto"} {
		packLanes := map[int]bool{}
		computeLanes := map[int]bool{}
		for _, ev := range trace.TraceEvents {
			if ev.Pid != pid || ev.Ph != "X" {
				continue
			}
			switch ev.Name {
			case "pack":
				packLanes[ev.Tid] = true
			case "compute":
				computeLanes[ev.Tid] = true
			}
		}
		if len(packLanes) == 0 || len(computeLanes) == 0 {
			t.Fatalf("%s: pack lanes %v, compute lanes %v", name, packLanes, computeLanes)
		}
		lanes := map[int]bool{}
		for l := range packLanes {
			lanes[l] = true
		}
		for l := range computeLanes {
			lanes[l] = true
		}
		if len(lanes) < 2 {
			t.Fatalf("%s: all spans on a single worker lane %v", name, lanes)
		}
	}
}
