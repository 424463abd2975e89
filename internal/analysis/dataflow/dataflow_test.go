package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// dirtyState is the tiniest useful lattice: a single may-bit, set by
// calls to mark() and cleared by calls to unmark() in the test source.
type dirtyState struct{ dirty bool }

func (s *dirtyState) Clone() State       { c := *s; return &c }
func (s *dirtyState) Join(o State)       { s.dirty = s.dirty || o.(*dirtyState).dirty }
func (s *dirtyState) Equal(o State) bool { return s.dirty == o.(*dirtyState).dirty }
func (s *dirtyState) apply(name string)  { s.dirty = name == "mark" || (s.dirty && name != "unmark") }

// runDirty walks fn and returns the dirty bit observed at each exit,
// keyed by the return statement's line (0 = fall off the end).
func runDirty(t *testing.T, src string) map[int]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "walk.go", "package p\nfunc mark()\nfunc unmark()\n"+src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("no func f in test source")
	}
	exits := map[int]bool{}
	hooks := Hooks{
		Transfer: func(st State, n ast.Node) {
			ast.Inspect(n, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						st.(*dirtyState).apply(id.Name)
					}
				}
				return true
			})
		},
		Defer: func(st State, call *ast.CallExpr) {
			if id, ok := call.Fun.(*ast.Ident); ok {
				st.(*dirtyState).apply(id.Name)
			}
		},
		Return: func(st State, ret *ast.ReturnStmt) {
			line := 0
			if ret != nil {
				line = fset.Position(ret.Pos()).Line
			}
			exits[line] = exits[line] || st.(*dirtyState).dirty
		},
	}
	Walk(fn.Body, &dirtyState{}, hooks)
	return exits
}

// anyDirty reports whether any exit observed the dirty bit.
func anyDirty(exits map[int]bool) bool {
	for _, d := range exits {
		if d {
			return true
		}
	}
	return false
}

func TestWalkBranchJoin(t *testing.T) {
	// One arm marks: the join after the if must be dirty.
	exits := runDirty(t, `
func f(c bool) {
	if c {
		mark()
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("mark() on one arm should reach the exit as may-dirty")
	}
	// Both arms clean it: the join must be clean.
	exits = runDirty(t, `
func f(c bool) {
	mark()
	if c {
		unmark()
	} else {
		unmark()
	}
}`)
	if anyDirty(exits) {
		t.Fatal("unmark() on both arms should clear the fact at the join")
	}
}

func TestWalkPathSensitiveReturns(t *testing.T) {
	// The early return exits clean; only the final one is dirty.
	exits := runDirty(t, `
func f(c bool) {
	if c {
		return
	}
	mark()
	return
}`)
	dirtyLines := 0
	for _, d := range exits {
		if d {
			dirtyLines++
		}
	}
	if dirtyLines != 1 {
		t.Fatalf("want exactly one dirty exit, got %d (%v)", dirtyLines, exits)
	}
}

func TestWalkDeferRunsAtExit(t *testing.T) {
	exits := runDirty(t, `
func f() {
	defer unmark()
	mark()
}`)
	if anyDirty(exits) {
		t.Fatal("deferred unmark() must be replayed before the exit is observed")
	}
	// Defers run LIFO: the later-registered mark() runs first, then
	// unmark() clears it.
	exits = runDirty(t, `
func f() {
	defer unmark()
	defer mark()
}`)
	if anyDirty(exits) {
		t.Fatalf("defers must replay last-registered-first: %v", exits)
	}
}

func TestWalkLoopCarriesFacts(t *testing.T) {
	// A mark inside the loop body may reach the exit.
	exits := runDirty(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		mark()
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("loop-body mark() should join into the loop exit")
	}
	// Zero iterations stay clean even when the body would clean a
	// pre-existing mark — and vice versa: the pre-loop mark survives.
	exits = runDirty(t, `
func f(n int) {
	mark()
	for i := 0; i < n; i++ {
		unmark()
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("the zero-iteration path must keep the pre-loop mark")
	}
}

func TestWalkInfiniteLoopBreak(t *testing.T) {
	exits := runDirty(t, `
func f(c bool) {
	for {
		if c {
			break
		}
		mark()
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("state carried across iterations must flow through break")
	}
	// Break before any mark: clean.
	exits = runDirty(t, `
func f() {
	for {
		break
	}
	return
}`)
	if anyDirty(exits) {
		t.Fatal("breaking immediately should stay clean")
	}
}

func TestWalkSwitchDefaultAndFallthrough(t *testing.T) {
	// No default: the untouched input joins the case outputs.
	exits := runDirty(t, `
func f(n int) {
	mark()
	switch n {
	case 1:
		unmark()
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("switch without default must keep the no-case path dirty")
	}
	// Every case (incl. default) cleans: exit clean.
	exits = runDirty(t, `
func f(n int) {
	mark()
	switch n {
	case 1:
		unmark()
	default:
		unmark()
	}
}`)
	if anyDirty(exits) {
		t.Fatal("all arms cleaning must produce a clean join")
	}
	// Fallthrough carries the first case's state into the second.
	exits = runDirty(t, `
func f(n int) {
	switch n {
	case 1:
		mark()
		fallthrough
	case 2:
		unmark()
	default:
	}
}`)
	if anyDirty(exits) {
		t.Fatal("fallthrough state must flow into the next case, where it is cleaned")
	}
}

func TestWalkSelect(t *testing.T) {
	exits := runDirty(t, `
func f(a, b chan int) {
	select {
	case <-a:
		mark()
	case <-b:
	}
}`)
	if !anyDirty(exits) {
		t.Fatal("one select arm marking must reach the join")
	}
}

func TestWalkFuncLitNotEntered(t *testing.T) {
	// The literal body belongs to another node; its mark() must not
	// leak into this function's state.
	exits := runDirty(t, `
func f() {
	g := func() { mark() }
	_ = g
}`)
	if anyDirty(exits) {
		t.Fatal("function-literal bodies must not be interpreted in the encloser")
	}
}

// typecheck parses and checks one file, returning what the fact
// helpers need.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "facts.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, pkg, info
}

func TestFieldWritesIn(t *testing.T) {
	fset, f, _, info := typecheck(t, `package p

type S struct {
	q []int
	m map[int]int
	n int
	u int
}

func (s *S) f(k int) {
	s.q = append(s.q, 1)
	s.m[k] = 2
	s.n++
	delete(s.m, k)
	x := s.u
	_ = x
	go func() { s.u = 9 }()
}
`)
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd
		}
	}
	writes := FieldWritesIn(info, fn.Body, func(v *types.Var) bool { return true })
	var got []string
	for _, w := range writes {
		got = append(got, w.Field.Name()+":"+intToStr(fset.Position(w.Pos).Line))
	}
	want := []string{"q:11", "m:12", "n:13", "m:14"}
	if len(got) != len(want) {
		t.Fatalf("writes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("writes = %v, want %v", got, want)
		}
	}
}

func intToStr(n int) string {
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestSelectorPath(t *testing.T) {
	_, f, _, info := typecheck(t, `package p

type inner struct{ buf []int }
type outer struct{ in inner }

var global outer

func f(o *outer) {
	local := o
	_ = local.in.buf
	_ = global.in
	_ = local
}
`)
	paths := map[string]int{}
	ast.Inspect(f, func(x ast.Node) bool {
		if e, ok := x.(*ast.SelectorExpr); ok {
			if p := SelectorPath(info, e); p != nil {
				names := ""
				for i, v := range p {
					if i > 0 {
						names += "."
					}
					names += v.Name()
				}
				paths[names]++
			}
		}
		return true
	})
	for _, want := range []string{"local.in.buf", "global.in"} {
		if paths[want] == 0 {
			keys := make([]string, 0, len(paths))
			for k := range paths {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Fatalf("missing selector path %q; got %v", want, keys)
		}
	}
}

// TestMarkerGrammarIsShared: one parser reads every //schedlint:
// marker. A marker trailing a guard comment, with a fixture expectation
// after it, reads the same as a file-level marker and as a field
// marker: same arguments, same position.
func TestMarkerGrammarIsShared(t *testing.T) {
	_, f, _, info := typecheck(t, `package p

type S struct {
	c chan int // guarded by mu //schedlint:chan-owner Close its only closer // want "x"
}
`)
	files := []*ast.File{f}
	file := analysis.Markers(files, "chan-owner")
	field := FieldMarkers(files, info, "chan-owner")
	if len(file) != 1 || len(field) != 1 {
		t.Fatalf("found %d file and %d field markers; want 1 and 1", len(file), len(field))
	}
	if file[0].Args != field[0].Args || file[0].Pos != field[0].Pos {
		t.Fatalf("file-level marker %q at %v, field marker %q at %v", file[0].Args, file[0].Pos, field[0].Args, field[0].Pos)
	}
	if file[0].Args != "Close its only closer" {
		t.Fatalf("marker arguments %q, want %q", file[0].Args, "Close its only closer")
	}
}
