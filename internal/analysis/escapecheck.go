package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// escapecheck cross-checks the //cake:hotpath contract against the
// compiler's own escape analysis. hotpathalloc rejects the allocation
// *patterns* visible in the AST — make, append, closures, interface
// conversions — but the decisions that actually put a value on the heap are
// made later, by the gc escape pass: a variable moved to heap because its
// address outlives the frame, a capture the closure forces to escape, a
// conversion the inliner failed to devirtualize. escapecheck captures
// `go build -gcflags=-m` diagnostics (or parses a pre-captured log for
// hermetic runs and CI caching), attributes each line to its enclosing
// function, and fails when a //cake:hotpath function heap-allocates.
//
// Three diagnostic kinds are attributed:
//
//   - "escapes to heap"  → error in a hot function
//   - "moved to heap"    → error in a hot function
//   - "cannot inline"    → advisory on a hot function (expected for the big
//     unrolled kernels, interesting for small leaf helpers)
//
// Escapes inside a terminal panic(...) argument are exempt, mirroring
// hotpathalloc: the guard-clause fmt.Sprintf runs at most once, on the way
// out. A //cake:hotpath function without a Go body (assembly) is itself an
// error: the compiler never analyses its body, so it must carry
// //cake:hotpath-exempt <reason> instead.

// EscapeKind classifies one attributed compiler diagnostic.
type EscapeKind int

const (
	EscapeHeap     EscapeKind = iota // "... escapes to heap"
	EscapeMoved                      // "moved to heap: x"
	EscapeNoInline                   // "cannot inline f: ..."
)

// EscapeDiag is one compiler diagnostic resolved to a file position.
type EscapeDiag struct {
	File    string // absolute path
	Line    int
	Col     int
	Kind    EscapeKind
	Message string
}

// EscapeLog is the parsed escape-analysis output for one build, indexed by
// absolute file path.
type EscapeLog struct {
	ByFile map[string][]EscapeDiag
	Diags  int // total attributable diagnostics parsed
}

// CaptureEscapeDiagnostics runs `go build -gcflags=-m` over patterns in dir
// and returns both the parsed log and the raw compiler output (so callers
// can cache the bytes and re-parse them later with ParseEscapeDiagnostics).
// The build cache replays diagnostics, so repeated captures are cheap.
func CaptureEscapeDiagnostics(dir string, patterns ...string) (*EscapeLog, []byte, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// -m -m: level 1 only prints positive inlining decisions; the
	// "cannot inline" attribution needs level 2. Escape verdicts are
	// identical at both levels, level 2 just adds flow detail lines (which
	// the parser skips).
	args := append([]string{"build", "-gcflags=-m -m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	log, err := ParseEscapeDiagnostics(stderr.Bytes(), dir)
	return log, stderr.Bytes(), err
}

// ParseEscapeDiagnostics parses `go build -gcflags=-m` output. Relative
// file paths are resolved against root (the directory the build ran in).
// Lines that are not position-prefixed diagnostics (package headers, blank
// lines) and diagnostic kinds escapecheck does not attribute ("can inline",
// "inlining call to", "leaking param", …) are skipped.
func ParseEscapeDiagnostics(out []byte, root string) (*EscapeLog, error) {
	log := &EscapeLog{ByFile: map[string][]EscapeDiag{}}
	// A generic function's diagnostics replay once per instantiation and
	// once per importing package's build; dedupe by position and kind so
	// each decision is attributed exactly once.
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, ok := parseEscapeLine(line, root)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%d", d.File, d.Line, d.Col, d.Kind)
		if seen[key] {
			continue
		}
		seen[key] = true
		log.ByFile[d.File] = append(log.ByFile[d.File], d)
		log.Diags++
	}
	return log, nil
}

// parseEscapeLine decodes "path:line:col: message" and classifies the
// message, returning ok=false for kinds escapecheck does not attribute.
func parseEscapeLine(line, root string) (EscapeDiag, bool) {
	var d EscapeDiag
	// path:line:col: message — split from the left so the message may
	// contain colons freely.
	rest := line
	ci := strings.Index(rest, ":")
	if ci <= 0 {
		return d, false
	}
	// Windows-free builds: the first segment is the path.
	path := rest[:ci]
	rest = rest[ci+1:]
	ci = strings.Index(rest, ":")
	if ci <= 0 {
		return d, false
	}
	lineNo, err := strconv.Atoi(rest[:ci])
	if err != nil {
		return d, false
	}
	rest = rest[ci+1:]
	ci = strings.Index(rest, ":")
	if ci <= 0 {
		return d, false
	}
	colNo, err := strconv.Atoi(rest[:ci])
	if err != nil {
		return d, false
	}
	msg := strings.TrimSpace(rest[ci+1:])

	switch {
	case strings.HasPrefix(msg, "moved to heap"):
		d.Kind = EscapeMoved
	case strings.HasSuffix(msg, "escapes to heap"):
		d.Kind = EscapeHeap
		// Note: -m -m also prints a flow-detail header "x escapes to heap:"
		// (trailing colon) for every escape INCLUDING moved-to-heap
		// variables; the suffix match deliberately rejects it so a moved
		// variable is attributed once, as EscapeMoved.
	case strings.HasPrefix(msg, "cannot inline"):
		d.Kind = EscapeNoInline
	default:
		return d, false
	}
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	d.File = filepath.Clean(path)
	d.Line = lineNo
	d.Col = colNo
	d.Message = msg
	return d, true
}

// NewEscapeCheck builds the escapecheck analyzer over a parsed escape log.
// A nil or empty log makes the pass a no-op.
func NewEscapeCheck(log *EscapeLog) *Analyzer {
	a := &Analyzer{
		Name:   "escapecheck",
		Doc:    "fails //cake:hotpath functions that heap-allocate per the compiler's escape analysis (go build -gcflags=-m)",
		Syntax: true,
	}
	a.Run = func(pass *Pass) error {
		if log == nil || log.Diags == 0 {
			return nil
		}
		checkBodyless(pass)
		for _, f := range pass.Files {
			pos := pass.Fset.Position(f.Pos())
			diags := log.ByFile[filepath.Clean(pos.Filename)]
			if len(diags) == 0 {
				continue
			}
			checkFileEscapes(pass, f, diags)
		}
		return nil
	}
	return a
}

// checkBodyless reports //cake:hotpath on functions without a Go body: the
// compiler's escape analysis never sees an assembly body, so the annotation
// would promise a check that cannot run. Such a function must say why it is
// safe with //cake:hotpath-exempt <reason> instead.
func checkBodyless(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body != nil || !hasDirective(fn.Doc, "hotpath") || reasonedExempt(fn) {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"%s is annotated //cake:hotpath but has no Go body, so escape analysis cannot check it; use //cake:hotpath-exempt <reason>",
				fn.Name.Name)
		}
	}
}

func checkFileEscapes(pass *Pass, f *ast.File, diags []EscapeDiag) {
	// Different columns on one line (distinct shape instantiations, inlined
	// copies) collapse to the same reported position; keep one finding per
	// (line, kind, message) so the output is readable.
	reported := map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !hasDirective(fn.Doc, "hotpath") {
			continue
		}
		start := pass.Fset.Position(fn.Pos())
		end := pass.Fset.Position(fn.End())
		guards := panicRanges(pass.Fset, fn)
		for _, d := range diags {
			if d.Line < start.Line || d.Line > end.Line {
				continue
			}
			key := fmt.Sprintf("%d:%d:%s", d.Line, d.Kind, d.Message)
			if reported[key] {
				continue
			}
			reported[key] = true
			switch d.Kind {
			case EscapeHeap, EscapeMoved:
				if inRanges(guards, d.Line, d.Col) {
					continue // terminal panic guard, mirrors hotpathalloc
				}
				pass.Reportf(posFor(pass.Fset, fn, d),
					"compiler escape analysis: %q in hot path %s; hot functions must not heap-allocate",
					d.Message, fn.Name.Name)
			case EscapeNoInline:
				pass.Advisoryf(fn.Name.Pos(),
					"hot path %s does not inline (%s); callers pay a call frame per invocation", fn.Name.Name, d.Message)
			}
		}
	}
}

// posFor maps a diagnostic's line:col back to a token.Pos inside fn so the
// report lands on the allocating line rather than the declaration.
func posFor(fset *token.FileSet, fn *ast.FuncDecl, d EscapeDiag) token.Pos {
	tf := fset.File(fn.Pos())
	if tf == nil || d.Line < 1 || d.Line > tf.LineCount() {
		return fn.Name.Pos()
	}
	return tf.LineStart(d.Line)
}

// lineColRange is a half-open source range in line/column coordinates.
type lineColRange struct {
	startLine, startCol int
	endLine, endCol     int
}

// panicRanges returns the source ranges of every panic(...) call inside fn.
// Escapes positioned inside them (the guard clause's fmt.Sprintf and its
// boxed arguments) are exempt.
func panicRanges(fset *token.FileSet, fn *ast.FuncDecl) []lineColRange {
	var out []lineColRange
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			s := fset.Position(call.Pos())
			e := fset.Position(call.End())
			out = append(out, lineColRange{s.Line, s.Column, e.Line, e.Column})
		}
		return true
	})
	return out
}

func inRanges(rs []lineColRange, line, col int) bool {
	for _, r := range rs {
		afterStart := line > r.startLine || (line == r.startLine && col >= r.startCol)
		beforeEnd := line < r.endLine || (line == r.endLine && col <= r.endCol)
		if afterStart && beforeEnd {
			return true
		}
	}
	return false
}
