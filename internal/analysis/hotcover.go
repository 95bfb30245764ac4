package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// hotcover closes the loop between the corpus profiles PR 8 commits and the
// //cake:hotpath annotations hotpathalloc enforces. The annotation set is
// hand-placed, so a function can go hot — a new batch loop, a resident serve
// path — without ever being inspected by hotpathalloc; the analytic traffic
// model then reasons about loops the machine does not actually spend its
// time in. hotcover loads every committed CPU profile, aggregates leaf-frame
// flat time per scenario (cpu-serve, cpu-batch, …, summed across epochs so
// one noisy epoch cannot flip a verdict), and requires every module function
// whose share of some scenario reaches the threshold to carry either
// //cake:hotpath or an explicit //cake:hotpath-exempt <reason> (for code
// that allocates deliberately and amortizes it, e.g. a per-block stage
// header). Closure frames (F.func1) and generic instantiations
// (F[go.shape.float64]) are attributed to the declaring function.
//
// A function without a Go body (implemented in assembly) cannot be
// inspected by any pass, so //cake:hotpath does not cover it: when hot it
// must carry //cake:hotpath-exempt with a reason.
//
// The converse direction is advisory: a //cake:hotpath function with zero
// samples in every committed profile is reported as possibly stale — either
// the annotation outlived the code's role or the corpus scenarios no longer
// exercise it. Advisories never affect the exit code.

// DefaultHotShare is the default per-scenario flat-share threshold above
// which a function counts as hot (2%).
const DefaultHotShare = 0.02

// HotFunc is one function's aggregated profile presence.
type HotFunc struct {
	Name     string  `json:"name"`      // normalized frame name, e.g. repro/internal/matrix.(*Matrix).At
	MaxShare float64 `json:"max_share"` // largest share of any scenario's flat time
	Scenario string  `json:"scenario"`  // scenario realizing MaxShare
	Value    int64   `json:"value"`     // total flat value across all profiles
}

// HotStats is the aggregated view of a corpus profile store that hotcover
// judges against.
type HotStats struct {
	Threshold float64             // hot if MaxShare >= Threshold
	Profiles  int                 // CPU profiles aggregated
	Scenarios []string            // scenario labels seen, sorted
	Funcs     map[string]*HotFunc // normalized frame name → stats
	Notices   []string            // skipped files, empty-store notice
}

// Empty reports whether no usable CPU profile was found — hotcover then
// reports nothing (a fresh clone must not fail CI for having no history).
func (h *HotStats) Empty() bool { return h == nil || h.Profiles == 0 }

// Hot returns the functions at or above the threshold, hottest first.
func (h *HotStats) Hot() []*HotFunc {
	if h.Empty() {
		return nil
	}
	var out []*HotFunc
	for _, f := range h.Funcs {
		if f.MaxShare >= h.Threshold {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxShare != out[j].MaxShare {
			return out[i].MaxShare > out[j].MaxShare
		}
		return out[i].Name < out[j].Name
	})
	return out
}

var (
	genericInstRe  = regexp.MustCompile(`\[[^\[\]]*\]`)
	closureFrameRe = regexp.MustCompile(`(\.func\d+(\.\d+)*)+$`)
)

// NormalizeFrame reduces a runtime frame name to the declaring function:
// generic instantiation suffixes ([go.shape.float64]) are stripped and
// closure frames (.func1, .func2.1) are attributed to the enclosing
// declaration, so repro/internal/core.(*Executor[go.shape.float32]).submitPack.func1
// becomes repro/internal/core.(*Executor).submitPack.
func NormalizeFrame(name string) string {
	// Iterate to a fixpoint so nested instantiation brackets
	// (go.shape.[]uint8) strip from the inside out.
	for {
		next := genericInstRe.ReplaceAllString(name, "")
		if next == name {
			break
		}
		name = next
	}
	return closureFrameRe.ReplaceAllString(name, "")
}

// LoadHotStats aggregates every CPU profile under the corpus store layout
// corpusDir/NNNN-<rev>/*.pprof. The scenario label is the profile's base
// name (cpu-serve, cpu-batch, …); the same scenario is summed across
// epochs. Unreadable or non-CPU profiles are skipped with a notice — a
// truncated capture must degrade coverage, not fail the gate. threshold <= 0
// selects DefaultHotShare.
func LoadHotStats(corpusDir string, threshold float64) (*HotStats, error) {
	if threshold <= 0 {
		threshold = DefaultHotShare
	}
	h := &HotStats{Threshold: threshold, Funcs: map[string]*HotFunc{}}
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*", "*.pprof"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	type scen struct {
		total int64
		flat  map[string]int64
	}
	scenarios := map[string]*scen{}
	for _, path := range paths {
		sum, err := experiments.ReadProfileSummary(path)
		if err != nil {
			h.Notices = append(h.Notices, fmt.Sprintf("hotcover: skipping unreadable profile %s: %v", path, err))
			continue
		}
		if sum.SampleType != "cpu" {
			continue // heap profiles attribute allocation sites, not time
		}
		label := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		sc := scenarios[label]
		if sc == nil {
			sc = &scen{flat: map[string]int64{}}
			scenarios[label] = sc
		}
		for _, fr := range sum.Frames {
			sc.flat[NormalizeFrame(fr.Name)] += fr.Value
			sc.total += fr.Value
		}
		h.Profiles++
	}
	for label, sc := range scenarios {
		h.Scenarios = append(h.Scenarios, label)
		if sc.total == 0 {
			continue
		}
		for name, v := range sc.flat {
			f := h.Funcs[name]
			if f == nil {
				f = &HotFunc{Name: name}
				h.Funcs[name] = f
			}
			f.Value += v
			if share := float64(v) / float64(sc.total); share > f.MaxShare {
				f.MaxShare = share
				f.Scenario = label
			}
		}
	}
	sort.Strings(h.Scenarios)
	if h.Profiles == 0 {
		h.Notices = append(h.Notices,
			fmt.Sprintf("hotcover: no CPU profiles under %s; hot-path coverage not checked (run `cake-bench corpus -profile` to capture an epoch)", corpusDir))
	}
	return h, nil
}

// NewHotCover builds the hotcover analyzer over aggregated profile stats.
// With empty stats the pass reports nothing.
func NewHotCover(stats *HotStats) *Analyzer {
	a := &Analyzer{
		Name:   "hotcover",
		Doc:    "requires //cake:hotpath (or //cake:hotpath-exempt) on functions hot in the committed corpus profiles; flags never-sampled annotations as stale",
		Syntax: true,
	}
	a.Run = func(pass *Pass) error {
		if stats.Empty() {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := pass.Path + "." + funcFrameName(fn)
				hf := stats.Funcs[key]
				hot := hf != nil && hf.MaxShare >= stats.Threshold
				if fn.Body == nil {
					// An assembly function: no pass can inspect its body,
					// so being hot demands a reasoned exemption.
					if hot && !reasonedExempt(fn) {
						pass.Reportf(fn.Name.Pos(),
							"%s has no Go body and is hot in committed profiles (%.1f%% of %s flat time); hotpathalloc and escapecheck cannot inspect it, so it needs //cake:hotpath-exempt <reason>",
							fn.Name.Name, hf.MaxShare*100, hf.Scenario)
					}
					continue
				}
				annotated := hasDirective(fn.Doc, "hotpath")
				exempt := hasDirective(fn.Doc, "hotpath-exempt")
				switch {
				case hot && !annotated && !exempt:
					pass.Reportf(fn.Name.Pos(),
						"%s is hot in committed profiles (%.1f%% of %s flat time) but carries neither //cake:hotpath nor //cake:hotpath-exempt, so hotpathalloc and escapecheck never inspect it",
						fn.Name.Name, hf.MaxShare*100, hf.Scenario)
				case annotated && hf == nil:
					pass.Advisoryf(fn.Name.Pos(),
						"%s is annotated //cake:hotpath but has zero samples in all %d committed CPU profiles; the annotation may be stale or the corpus scenarios no longer exercise it",
						fn.Name.Name, stats.Profiles)
				}
			}
		}
		return nil
	}
	return a
}

// funcFrameName renders a FuncDecl the way its runtime frame (normalized by
// NormalizeFrame) spells it relative to the package path: F for a plain
// function, T.F / (*T).F for methods, with generic parameters dropped.
func funcFrameName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if st, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = st.X
	}
	base := receiverBase(t)
	if ptr {
		return "(*" + base + ")." + fn.Name.Name
	}
	return base + "." + fn.Name.Name
}

// receiverBase extracts the receiver type name, dropping generic type
// parameter lists (Matrix[T] → Matrix).
func receiverBase(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return receiverBase(t.X)
	case *ast.IndexListExpr:
		return receiverBase(t.X)
	case *ast.ParenExpr:
		return receiverBase(t.X)
	}
	return ""
}
