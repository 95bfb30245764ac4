package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public function
// (or a replay of it one layer down). Parent is the index of the enclosing
// span in the same recorder, -1 for a root; Req ties every span caused by one
// request together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one goroutine; nil records nothing, so
// the untraced run pays one branch per call site.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// add records a call the caller has already timed, from t0 to t1, so the
// span covers exactly the measured call and none of the bookkeeping around
// it (poisoning, oracle checks).
func (r *recorder) add(name string, parent int, req int64, t0, t1 time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// selfTimes returns each span's duration minus the durations of its direct
// children. A child is a call one layer down that does part of its parent's
// work: nested inside the parent, or replayed on the same inputs right after
// it (how this benchmark times a layer from outside). Either way the child's
// time is charged to its parent, so self time is what the parent's layer
// adds on top of the layers below. The children of one span never overlap,
// as each recorder belongs to one goroutine. Self time is clamped at 0: a
// parallel layer can take less time than its children replayed one after
// another on one thread.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.dur()
		}
	}
	for i := range out {
		out[i] = max(0, out[i])
	}
	return out
}

// sample is the span accounting of the replayed requests: the span trees
// whose root has children. Every per-layer time attribution of a traced run
// comes from it.
type sample struct {
	wall  int64            // Σ root-span durations
	outer int64            // Σ root self times: what the outer layer (engine or convnet) adds
	self  map[string]int64 // Σ self time per span name
}

// replayed sums the self times of every replayed request's spans. A span's
// parent always precedes it in its recorder, so one pass finds each root.
func replayed(recs []*recorder) sample {
	out := sample{self: map[string]int64{}}
	for _, r := range recs {
		self := selfTimes(r.spans)
		root := make([]int, len(r.spans))
		hasKids := make([]bool, len(r.spans))
		for i, s := range r.spans {
			root[i] = i
			if s.Parent >= 0 {
				root[i] = root[s.Parent]
				hasKids[s.Parent] = true
			}
		}
		for i, s := range r.spans {
			if !hasKids[root[i]] {
				continue
			}
			out.self[s.Name] += self[i]
			if s.Parent < 0 {
				out.wall += s.dur()
				out.outer += self[i]
			}
		}
	}
	return out
}

// noteSelfTimes prints each span name's summed self time over the replayed
// requests, largest first, as a share of their wall time.
func (r *run) noteSelfTimes(s sample) {
	names := make([]string, 0, len(s.self))
	for n := range s.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.self[names[i]] > s.self[names[j]] })
	for _, n := range names {
		r.notef("replayed self time %-34s %10.3f ms %5.1f%%", n, float64(s.self[n])/1e6, 100*share(float64(s.self[n]), float64(s.wall)))
	}
}

// writeSpans dumps every recorder's spans as JSON lines, one object per span
// with its recorder index, so the trace can be inspected after the run.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ri, r := range recs {
		for i, s := range r.spans {
			if err := enc.Encode(struct {
				Recorder int `json:"recorder"`
				ID       int `json:"id"`
				span
			}{ri, i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush spans: %w", err)
	}
	return f.Close()
}
