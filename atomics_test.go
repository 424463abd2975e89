package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAtomicsAreWrapperTypes holds every Go file in the repository to
// one rule: an atomic is a sync/atomic wrapper type (atomic.Int64,
// atomic.Bool, atomic.Pointer, …), never a plain variable handed to the
// function forms (atomic.AddInt64, atomic.LoadUint32, …). A wrapper
// cannot be read or written plainly by mistake, and its 64-bit kinds
// are 8-byte aligned on 32-bit platforms by construction. A plain int64
// under atomic.AddInt64 is neither: a plain access beside the atomic
// ones is a race the detector reports only when a test interleaves the
// two, and a field at an offset that is not a multiple of 8 panics on
// GOARCH=386 only when a test reaches it.
func TestAtomicsAreWrapperTypes(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
				name = "atomic"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name {
					t.Errorf("%s: %s.%s on a plain variable; declare it as a sync/atomic wrapper type",
						fset.Position(call.Pos()), name, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
