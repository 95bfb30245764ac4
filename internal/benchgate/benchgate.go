// Package benchgate is the repo's one benchmark gate, over the corpus
// history store (internal/experiments): an invariant table judges paired
// cells of the newest epoch — each feature's claim as a ratio measured back
// to back inside one epoch, so host drift largely cancels — and a trend
// analyzer judges every cell against its own same-host history. Noise on
// shared machines is one-sided (it only slows runs down), so the statistics
// pick best or worst runs rather than means.
package benchgate

import (
	"fmt"
	"io"
	"slices"
)

// Finding is one judged metric.
type Finding struct {
	File       string  `json:"file"`   // which table judged it: invariant | corpus-history
	Key        string  `json:"key"`    // invariant name or cell key
	Metric     string  `json:"metric"` // what was computed
	Base       float64 `json:"base"`
	Candidate  float64 `json:"candidate"`
	Limit      float64 `json:"limit"` // the bound the candidate was judged against
	Regression bool    `json:"regression"`
	Detail     string  `json:"detail"`
}

// Result is a full gate evaluation.
type Result struct {
	Findings []Finding `json:"findings"`
}

// Summary is the machine-readable document `cake-bench check -json` writes:
// the overall verdict, every finding (invariants and trend cells), and the
// full trend report.
type Summary struct {
	OK          bool         `json:"ok"`
	Regressions int          `json:"regressions"`
	Findings    []Finding    `json:"findings"`
	Trend       *TrendReport `json:"trend,omitempty"`
}

// OK reports whether no finding is a regression.
func (r Result) OK() bool {
	for _, f := range r.Findings {
		if f.Regression {
			return false
		}
	}
	return true
}

// Regressions returns only the failing findings.
func (r Result) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Regression {
			out = append(out, f)
		}
	}
	return out
}

// Render writes a human-readable summary.
func (r Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-28s %-22s %10s %10s %10s  %s\n",
		"file", "key", "metric", "base", "candidate", "limit", "verdict")
	for _, f := range r.Findings {
		verdict := "ok"
		if f.Regression {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "%-16s %-28s %-22s %10.3f %10.3f %10.3f  %s\n",
			f.File, f.Key, f.Metric, f.Base, f.Candidate, f.Limit, verdict)
		if f.Regression && f.Detail != "" {
			fmt.Fprintf(w, "    %s\n", f.Detail)
		}
	}
}

// best returns the largest sample, floor the smallest; empty input returns
// 0. Which one is the most favourable run depends on the metric's
// direction.
func best(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Max(vals)
}

func floor(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}
