package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// target type-checks src as the package at path.
func target(t *testing.T, path, src string) *Target {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
}

// TestRunAnalyzersDropsRepeatedFindings: an analyzer that reports the
// same (position, message) twice — as a walker revisiting a loop body
// does — yields one finding; a different message at that position is
// its own finding.
func TestRunAnalyzersDropsRepeatedFindings(t *testing.T) {
	twice := &Analyzer{Name: "twice", Run: func(p *Pass) error {
		pos := p.Files[0].Decls[0].Pos()
		p.Reportf(pos, "same")
		p.Reportf(pos, "same")
		p.Reportf(pos, "other")
		return nil
	}}
	fs, err := RunAnalyzers(target(t, "p", "package p\n\nfunc f() {}\n"), []*Analyzer{twice})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Message == fs[1].Message {
		t.Fatalf("findings %v; want one \"same\" and one \"other\"", fs)
	}
}

// TestRunAnalyzersChecksDeclaredClasses: an analyzer runs on a package
// only when the package table puts the package in one of its classes
// (or it declares none), and an external test package counts as its
// package.
func TestRunAnalyzersChecksDeclaredClasses(t *testing.T) {
	ran := map[string]bool{}
	an := func(name string, c Class) *Analyzer {
		return &Analyzer{Name: name, Packages: c, Run: func(*Pass) error { ran[name] = true; return nil }}
	}
	all := []*Analyzer{an("any", 0), an("det", Deterministic), an("daemon", Daemon|Tooling)}
	if _, err := RunAnalyzers(target(t, "repro/internal/core_test", "package core_test\n"), all); err != nil {
		t.Fatal(err)
	}
	if !ran["any"] || !ran["det"] || ran["daemon"] {
		t.Fatalf("ran %v on core_test; want any and det only", ran)
	}
}
