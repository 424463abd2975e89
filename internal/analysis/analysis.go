// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface used by schedlint. The
// container image has no module proxy access, so the framework is
// built directly on the standard library's go/ast and go/types: an
// Analyzer inspects one type-checked package at a time through a Pass
// and reports position-tagged Diagnostics.
//
// Findings can be suppressed with repo-specific lint directives of the
// form
//
//	//lint:<name> <reason>
//
// placed on the offending line, on the line directly above it, or in
// the doc comment / declaration line of the enclosing function (which
// suppresses the whole function body). A non-empty reason is
// mandatory: the directive both silences the finding and documents why
// the exception is sound. See directives.go for parsing and scope
// rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output ("nodeterminism").
	Name string
	// Doc is a one-paragraph description of what is flagged and why.
	Doc string
	// Directive is the suppression directive name honoured by this
	// analyzer ("wallclock" → `//lint:wallclock <reason>`). Empty means
	// findings cannot be suppressed.
	Directive string
	// Tests opts the analyzer into _test.go files: when the driver
	// loads a package with its test files (schedlint -tests), findings
	// that analyzers without Tests report inside test files are
	// dropped. chanlife opts in — tests spawn real daemons and close
	// channels like any other code — while the style and determinism
	// contracts (nodeterminism, goroutinelife, ...) bind product code
	// only.
	Tests bool
	// Packages names the package classes the analyzer checks (see
	// ClassOf); zero checks every package.
	Packages Class
	// Run inspects the package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Class is a set of package classes: what a package promises, and so
// which analyzers hold it to that promise.
type Class uint8

const (
	// Deterministic packages drive the simulator: runs repeat bit for
	// bit, so no wall clock and no global randomness (nodeterminism),
	// and every goroutine has a shutdown path (goroutinelife).
	Deterministic Class = 1 << iota
	// Daemon packages are the live daemons and their substrate: the
	// wall clock is allowed where a directive says why, and every
	// goroutine has a shutdown path.
	Daemon
	// Concurrent packages share memory between goroutines: the lock
	// order (lockorder) and channel ownership (chanlife) contracts
	// apply.
	Concurrent
	// Tooling is schedlint itself: its reports and golden fixtures are
	// diffed byte for byte, so it is held to Deterministic's rules
	// (nodeterminism, goroutinelife).
	Tooling
)

// classes is the one package table, keyed by the last element of the
// import path. A package missing from it (bench, the examples, the
// commands other than schedlint) has no class and is checked only by
// the analyzers that declare none (protoerr, protoexhaustive).
var classes = map[string]Class{
	"core": Deterministic | Concurrent, "profile": Deterministic, "sim": Deterministic,
	"cluster": Deterministic, "esp": Deterministic, "quadflow": Deterministic,
	"workload": Deterministic, "fairness": Deterministic, "rms": Deterministic | Concurrent,
	"job": Deterministic, "metrics": Deterministic, "trace": Deterministic,
	"config": Deterministic, "experiments": Deterministic, "backoff": Deterministic,
	"campaign": Deterministic | Concurrent, "fairtree": Deterministic,

	"serverd": Daemon | Concurrent, "mauid": Daemon | Concurrent, "mom": Daemon | Concurrent,
	"proto": Daemon | Concurrent, "tm": Daemon | Concurrent, "clock": Daemon | Concurrent,
	"chaos": Daemon | Concurrent,

	"analysis": Tooling, "analysistest": Tooling, "callgraph": Tooling, "dataflow": Tooling,
	"loader": Tooling, "schedlint": Tooling, "chanlife": Tooling, "goroutinelife": Tooling,
	"lockorder": Tooling, "nodeterminism": Tooling, "protoerr": Tooling, "protoexhaustive": Tooling,
}

// ClassOf returns the classes of the package at path. An external test
// package ("<pkg>_test") is held to its package's classes.
func ClassOf(path string) Class {
	path = path[strings.LastIndexByte(path, '/')+1:]
	return classes[strings.TrimSuffix(path, "_test")]
}

// Pass carries one analyzed package into an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver filters suppressed
	// diagnostics afterwards, so analyzers report unconditionally.
	Report func(Diagnostic)
	// Dep resolves the syntax and types of a dependency package by
	// import path (nil when the driver cannot provide dependency
	// sources). Interprocedural analyzers use it to read declarations
	// from packages the analyzed one imports — e.g. protoexhaustive
	// reads the message-type registry out of internal/proto while
	// analyzing a daemon's dispatch switch.
	Dep func(path string) *Target
	// Cached memoizes a derived artifact on the underlying Target, so
	// expensive per-package structures (the call graph) are built once
	// and shared by every analyzer in the run instead of once per
	// analyzer. Nil when the pass was constructed without a Target.
	Cached func(key string, build func() any) any
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Unsuppressable findings survive a matching lint directive; used
	// for "this directive is itself illegal here" reports.
	Unsuppressable bool
}

// Reportf formats and reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a resolved diagnostic with its analyzer and position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Target is the per-package input the driver feeds each analyzer.
type Target struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dep, when set by the driver, resolves an imported package's
	// Target (see Pass.Dep).
	Dep func(path string) *Target
	// TestsLoaded marks a target whose Files include _test.go files;
	// RunAnalyzers then drops test-file findings from analyzers that
	// did not opt in via Analyzer.Tests.
	TestsLoaded bool

	cache map[string]any
}

// Cached memoizes build's result under key for the lifetime of the
// target: the first caller builds, everyone after shares. RunAnalyzers
// threads it into every Pass so per-package artifacts (the call graph)
// are computed once per package, not once per analyzer.
func (t *Target) Cached(key string, build func() any) any {
	if t.cache == nil {
		t.cache = make(map[string]any)
	}
	v, ok := t.cache[key]
	if !ok {
		v = build()
		t.cache[key] = v
	}
	return v
}

// RunAnalyzers applies every analyzer whose package classes include the
// package, filters findings through the lint directives in the source,
// and returns the surviving findings sorted by position. A finding an
// analyzer repeats — a walker revisiting a loop body reports the same
// (position, message) on every pass — is kept once.
func RunAnalyzers(t *Target, analyzers []*Analyzer) ([]Finding, error) {
	sup := NewSuppressor(t.Fset, t.Files)
	class := ClassOf(t.Pkg.Path())
	var out []Finding
	seen := make(map[Finding]bool)
	for _, a := range analyzers {
		if a.Packages != 0 && a.Packages&class == 0 {
			continue
		}
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			Dep:       t.Dep,
			Cached:    t.Cached,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			pos := t.Fset.Position(d.Pos)
			if !d.Unsuppressable && a.Directive != "" && sup.Suppressed(a.Directive, pos) {
				continue
			}
			if t.TestsLoaded && !a.Tests && strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			f := Finding{Analyzer: a.Name, Pos: pos, Message: d.Message}
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
