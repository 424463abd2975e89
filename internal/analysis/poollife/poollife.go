// Package poollife checks the lifetime discipline of pooled objects:
// a value obtained from a `//schedlint:pool`-marked constructor must
// not be read, written, or passed anywhere after its declared release
// function runs, must not be released twice, and must be released (or
// escape) on every return path. The repo's instance is
// core.IterationResult — Scheduler.Iterate hands out a pooled result,
// Scheduler.Recycle returns it; a use-after-Recycle reads memory the
// next iteration is already overwriting.
//
// The markers name the pool on both ends:
//
//	//schedlint:pool IterationResult
//	func (s *Scheduler) Iterate(...) *IterationResult
//
//	//schedlint:pool-release IterationResult
//	func (s *Scheduler) Recycle(res *IterationResult)
//
// The release may be a method of the pooled object itself (res.Free())
// or take it as first argument. Constructor and release are resolved
// through Pass.Dep, so consumer packages are checked against markers
// declared in the defining package.
//
// Tracking is per function over the dataflow walker: a local bound
// from a constructor call is followed through branches (per-path
// merge), loops, and defers. Escapes end tracking conservatively —
// returning the value, storing it into a field, global, map, slice,
// or channel, and capturing it in a function literal all transfer the
// obligation to someone this analysis cannot see. Passing the value
// to an ordinary call is a *borrow*: the callee may look, the
// obligation stays here. What it does not prove: aliases (q := res;
// use q), obligations handed to helpers that release on the caller's
// behalf, and anything behind interface calls. Findings can be
// suppressed with `//lint:poollife <reason>`.
package poollife

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the poollife check.
var Analyzer = &analysis.Analyzer{
	Name:      "poollife",
	Doc:       "pooled objects must not be used after their release function and must be released or escape on every return path",
	Directive: "poollife",
	Run:       run,
}

// registry maps constructor and release functions to their pool name.
type registry struct {
	ctors map[*types.Func]string
	rels  map[*types.Func]string
}

func buildRegistry(pass *analysis.Pass) *registry {
	r := &registry{ctors: map[*types.Func]string{}, rels: map[*types.Func]string{}}
	add := func(files []*ast.File, info *types.Info) {
		for _, m := range dataflow.FuncMarkers(files, info, "pool") {
			if m.Fn == nil {
				continue
			}
			if m.Args == "" {
				pass.Report(analysis.Diagnostic{Pos: m.Pos, Unsuppressable: true,
					Message: "malformed pool marker: want `pool <Name>`"})
				continue
			}
			r.ctors[m.Fn] = m.Args
		}
		for _, m := range dataflow.FuncMarkers(files, info, "pool-release") {
			if m.Fn == nil {
				continue
			}
			if m.Args == "" {
				pass.Report(analysis.Diagnostic{Pos: m.Pos, Unsuppressable: true,
					Message: "malformed pool-release marker: want `pool-release <Name>`"})
				continue
			}
			r.rels[m.Fn] = m.Args
		}
	}
	add(pass.Files, pass.TypesInfo)
	if pass.Dep != nil {
		for _, imp := range pass.Pkg.Imports() {
			if dep := pass.Dep(imp.Path()); dep != nil {
				// Dep markers only declare; malformed ones are reported
				// when their own package is analyzed, so reports here
				// (wrong positions) are filtered by position anyway.
				for _, m := range dataflow.FuncMarkers(dep.Files, dep.TypesInfo, "pool") {
					if m.Fn != nil && m.Args != "" {
						r.ctors[m.Fn] = m.Args
					}
				}
				for _, m := range dataflow.FuncMarkers(dep.Files, dep.TypesInfo, "pool-release") {
					if m.Fn != nil && m.Args != "" {
						r.rels[m.Fn] = m.Args
					}
				}
			}
		}
	}
	return r
}

// varState tracks one pooled local: may-live (obligation open) and
// may-released bits plus where it was acquired, for messages.
type varState struct {
	live, released bool
	pool           string
	rel            string // the release function's name, for messages
	acq            token.Pos
}

// plState is the walker state: tracked locals by object.
type plState struct {
	vars map[*types.Var]*varState
}

func newState() *plState { return &plState{vars: map[*types.Var]*varState{}} }

func (s *plState) Clone() dataflow.State {
	c := newState()
	for v, vs := range s.vars {
		cp := *vs
		c.vars[v] = &cp
	}
	return c
}

func (s *plState) Join(o dataflow.State) {
	os := o.(*plState)
	for v, ovs := range os.vars {
		vs := s.vars[v]
		if vs == nil {
			cp := *ovs
			s.vars[v] = &cp
			continue
		}
		vs.live = vs.live || ovs.live
		vs.released = vs.released || ovs.released
	}
}

func (s *plState) Equal(o dataflow.State) bool {
	os := o.(*plState)
	if len(s.vars) != len(os.vars) {
		return false
	}
	for v, vs := range s.vars {
		ovs := os.vars[v]
		if ovs == nil || vs.live != ovs.live || vs.released != ovs.released {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) error {
	reg := buildRegistry(pass)
	if len(reg.ctors) == 0 && len(reg.rels) == 0 {
		return nil
	}
	a := &plAnalyzer{pass: pass, reg: reg}
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			switch fn := x.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					a.checkFunc(fn.Body)
				}
				return true
			case *ast.FuncLit:
				a.checkFunc(fn.Body)
				return true
			}
			return true
		})
	}
	return nil
}

type plAnalyzer struct {
	pass *analysis.Pass
	reg  *registry
}

func (a *plAnalyzer) checkFunc(body *ast.BlockStmt) {
	dataflow.Walk(body, newState(), dataflow.Hooks{
		Transfer: func(st dataflow.State, n ast.Node) { a.transfer(st.(*plState), n) },
		Defer:    func(st dataflow.State, call *ast.CallExpr) { a.call(st.(*plState), call) },
		Return: func(st dataflow.State, ret *ast.ReturnStmt) {
			s := st.(*plState)
			pos := token.NoPos
			if ret != nil {
				pos = ret.Pos()
			}
			for _, vs := range s.vars {
				if vs.live {
					p := pos
					if !p.IsValid() {
						p = vs.acq
					}
					a.pass.Reportf(p, "pooled %s may reach return without %s (acquired at %s)",
						vs.pool, vs.rel, a.pass.Fset.Position(vs.acq))
				}
			}
		},
	})
}

// transfer interprets one atomic statement or condition expression.
func (a *plAnalyzer) transfer(s *plState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(s, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, val := range vs.Values {
						if i < len(vs.Names) && a.bind(s, vs.Names[i], val) {
							continue
						}
						a.eval(s, val, false)
					}
				}
			}
		}
	case *ast.ExprStmt:
		// A constructor result at statement level is dropped on the
		// floor: neither released nor escaped.
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if pool, ok := a.ctorOf(call); ok {
				a.pass.Reportf(call.Pos(), "pooled %s dropped without release", pool)
				a.evalCallArgs(s, call)
				return
			}
		}
		a.eval(s, n.X, false)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			a.eval(s, res, true) // returning is an escape
		}
	case ast.Expr:
		a.eval(s, n, false)
	default:
		// Remaining statements (send, incdec, ...) just use their
		// sub-expressions.
		ast.Inspect(n, func(x ast.Node) bool {
			if e, ok := x.(ast.Expr); ok {
				a.eval(s, e, false)
				return false
			}
			return true
		})
	}
}

// assign handles bindings, rebindings, and escapes through the LHS.
func (a *plAnalyzer) assign(s *plState, n *ast.AssignStmt) {
	// Pairwise x, y = f(), g() only; the multi-value f() form cannot
	// produce a pooled object here (constructors return the object
	// first and alone in this repo).
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
				if a.bind(s, id, rhs) {
					continue
				}
			}
			a.eval(s, rhs, false)
			a.escapeTarget(s, n.Lhs[i], rhs)
		}
		return
	}
	for _, rhs := range n.Rhs {
		a.eval(s, rhs, false)
	}
}

// bind tracks id when rhs is a constructor call; reports and returns
// true also when it handled the rhs.
func (a *plAnalyzer) bind(s *plState, id *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	pool, ok := a.ctorOf(call)
	if !ok {
		return false
	}
	a.evalCallArgs(s, call)
	v := dataflow.LocalVar(a.pass.TypesInfo, a.pass.Pkg, id)
	if v == nil {
		return true // bound to a field/global: escapes immediately
	}
	s.vars[v] = &varState{live: true, pool: pool, rel: a.relNameFor(pool), acq: call.Pos()}
	return true
}

// escapeTarget ends tracking when a tracked value is stored anywhere
// but a plain local.
func (a *plAnalyzer) escapeTarget(s *plState, lhs, rhs ast.Expr) {
	v := a.trackedVar(s, rhs)
	if v == nil {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if lv := dataflow.LocalVar(a.pass.TypesInfo, a.pass.Pkg, id); lv != nil {
			return // local-to-local copy: the original stays tracked
		}
	}
	delete(s.vars, v)
}

// eval walks an expression: uses of released objects are findings,
// escapes end tracking, release calls flip state.
func (a *plAnalyzer) eval(s *plState, e ast.Expr, escaping bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.ParenExpr:
		a.eval(s, e.X, escaping)
	case *ast.Ident:
		v := dataflow.LocalVar(a.pass.TypesInfo, a.pass.Pkg, e)
		if v == nil {
			return
		}
		vs := s.vars[v]
		if vs == nil {
			return
		}
		if vs.released {
			a.pass.Reportf(e.Pos(), "pooled %s used after %s", vs.pool, vs.rel)
		}
		if escaping {
			delete(s.vars, v)
		}
	case *ast.CallExpr:
		a.call(s, e)
	case *ast.FuncLit:
		// Captured tracked objects escape into the literal's extent.
		for v := range s.vars {
			captured := false
			ast.Inspect(e.Body, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && a.pass.TypesInfo.Uses[id] == v {
					captured = true
				}
				return !captured
			})
			if captured {
				delete(s.vars, v)
			}
		}
	case *ast.UnaryExpr:
		a.eval(s, e.X, escaping)
	case *ast.StarExpr:
		a.eval(s, e.X, escaping)
	case *ast.SelectorExpr:
		a.eval(s, e.X, false)
	case *ast.IndexExpr:
		a.eval(s, e.X, false)
		a.eval(s, e.Index, escaping)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.eval(s, el, true) // composite inclusion escapes
		}
	case *ast.KeyValueExpr:
		a.eval(s, e.Key, escaping)
		a.eval(s, e.Value, escaping)
	case *ast.BinaryExpr:
		a.eval(s, e.X, false)
		a.eval(s, e.Y, false)
	case *ast.TypeAssertExpr:
		a.eval(s, e.X, escaping)
	case *ast.SliceExpr:
		a.eval(s, e.X, false)
	}
}

// call interprets one call: release transitions, constructor-in-call
// forms, and borrows.
func (a *plAnalyzer) call(s *plState, call *ast.CallExpr) {
	if pool, ok := a.relOf(call); ok {
		obj := a.releaseObject(call)
		// Evaluate the other arguments normally.
		for _, arg := range call.Args {
			if arg == obj {
				continue
			}
			a.eval(s, arg, false)
		}
		if obj != nil {
			// Releasing a fresh constructor result inline is fine:
			// Recycle(Iterate(...)).
			if inner, ok := ast.Unparen(obj).(*ast.CallExpr); ok {
				if _, isCtor := a.ctorOf(inner); isCtor {
					a.evalCallArgs(s, inner)
					return
				}
			}
			if v := a.trackedVar(s, obj); v != nil {
				vs := s.vars[v]
				if vs.released {
					a.pass.Reportf(call.Pos(), "pooled %s released twice (%s)", vs.pool, pool)
				}
				vs.released = true
				vs.live = false
				return
			}
			a.eval(s, obj, false)
		}
		return
	}
	// Receiver evaluation (s.sched.Recycle's s.sched, or a tracked
	// object's own method call — a use).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		a.eval(s, sel.X, false)
	}
	a.evalCallArgs(s, call)
}

func (a *plAnalyzer) evalCallArgs(s *plState, call *ast.CallExpr) {
	for _, arg := range call.Args {
		a.eval(s, arg, false) // borrow: uses, but no escape
	}
}

// releaseObject picks the released expression: the first argument, or
// the receiver for a parameterless release method.
func (a *plAnalyzer) releaseObject(call *ast.CallExpr) ast.Expr {
	if len(call.Args) > 0 {
		return call.Args[0]
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

func (a *plAnalyzer) trackedVar(s *plState, e ast.Expr) *types.Var {
	v := dataflow.LocalVar(a.pass.TypesInfo, a.pass.Pkg, e)
	if v == nil || s.vars[v] == nil {
		return nil
	}
	return v
}

func (a *plAnalyzer) ctorOf(call *ast.CallExpr) (string, bool) {
	fn := dataflow.CalledFunc(a.pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	pool, ok := a.reg.ctors[fn]
	return pool, ok
}

func (a *plAnalyzer) relOf(call *ast.CallExpr) (string, bool) {
	fn := dataflow.CalledFunc(a.pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	pool, ok := a.reg.rels[fn]
	return pool, ok
}

// relNameFor renders the release function's name for pool, for
// messages ("Recycle").
func (a *plAnalyzer) relNameFor(pool string) string {
	for fn, p := range a.reg.rels {
		if p == pool {
			return fn.Name()
		}
	}
	return "its release"
}
