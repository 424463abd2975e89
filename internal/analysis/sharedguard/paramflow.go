package sharedguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dataflow"
)

// paramFlow refines write attribution for writes whose root is a
// function parameter (receiver included). A write like `d.Node = ...`
// inside a decoder executes in every context that reaches the decoder,
// but the object it mutates is whatever each caller passed — and most
// callers pass a goroutine-local destination. Charging such writes to
// the decoder's contexts conflates "who runs the code" with "who
// shares the object" and flags every per-call scratch struct the
// moment two goroutines use the function.
//
// Instead, parameter-rooted writes are charged to the contexts a
// *shared* object can arrive from:
//
//   - a context that starts at the node itself — a spawn site's
//     arguments, an exported function's external callers, an escaped
//     literal's unknown invoker — hands it objects the analyzer cannot
//     see, so the node's seed contexts flow into every parameter;
//   - at each synchronous call site, an argument that is a provably
//     fresh local of the caller (see dataflow.FreshLocal) contributes
//     nothing: the callee initializes an unpublished object;
//   - an argument that is itself a parameter of the caller (directly,
//     or through a type switch or type assertion on one) contributes
//     the caller's own parameter contexts, to a fixpoint — this is how
//     Decode(dst) → decodeBinary(bin, dst) chains resolve;
//   - anything else (a field load, a map lookup, a call result)
//     contributes all of the caller's contexts, exactly as before.
//
// The refinement is strictly narrowing: every contribution is a subset
// of the caller's contexts, and the seeds are unchanged, so it can
// only remove findings relative to charging origins[node] wholesale.
type paramFlow struct {
	pass    *analysis.Pass
	g       *callgraph.Graph
	origins map[*callgraph.Node]map[int]bool
	// owner maps each named parameter (receiver included) to its node.
	owner map[*types.Var]*callgraph.Node
	// recv / params split the receiver from the positional parameters;
	// params keeps nil placeholders for blank and unnamed parameters so
	// argument positions stay aligned.
	recv   map[*callgraph.Node]*types.Var
	params map[*callgraph.Node][]*types.Var
	// derived maps a type-switch or type-assertion binding to the
	// variable it was derived from, so `switch d := dst.(type)` chains
	// resolve back to the parameter. Flow-insensitive, like the rest of
	// the analyzer: a rebound binding keeps its declared provenance.
	derived map[*types.Var]*types.Var
	// ctxs is the result: contexts a shared object may arrive from, per
	// parameter.
	ctxs map[*types.Var]map[int]bool
}

func newParamFlow(pass *analysis.Pass, g *callgraph.Graph, seeds, origins map[*callgraph.Node]map[int]bool) *paramFlow {
	pf := &paramFlow{
		pass:    pass,
		g:       g,
		origins: origins,
		owner:   map[*types.Var]*callgraph.Node{},
		recv:    map[*callgraph.Node]*types.Var{},
		params:  map[*callgraph.Node][]*types.Var{},
		derived: map[*types.Var]*types.Var{},
		ctxs:    map[*types.Var]map[int]bool{},
	}
	pf.collectParams()
	pf.collectDerived()
	for n, s := range seeds {
		for o := range s {
			if r := pf.recv[n]; r != nil {
				pf.add(r, o)
			}
			for _, p := range pf.params[n] {
				if p != nil {
					pf.add(p, o)
				}
			}
		}
	}
	dataflow.Fixpoint(g, func(n *callgraph.Node) bool {
		changed := false
		for _, e := range n.Calls {
			if pf.flowEdge(n, e) {
				changed = true
			}
		}
		return changed
	})
	return pf
}

// resolve maps a write root within node n to the parameter of n it
// derives from, or nil when the root is not parameter-rooted there
// (locals, captures of an enclosing function's state).
func (pf *paramFlow) resolve(n *callgraph.Node, v *types.Var) *types.Var {
	for v != nil {
		if pf.owner[v] == n {
			return v
		}
		v = pf.derived[v]
	}
	return nil
}

func (pf *paramFlow) add(p *types.Var, o int) bool {
	s := pf.ctxs[p]
	if s == nil {
		s = map[int]bool{}
		pf.ctxs[p] = s
	}
	if s[o] {
		return false
	}
	s[o] = true
	return true
}

func (pf *paramFlow) addAll(p *types.Var, os map[int]bool) bool {
	changed := false
	for o := range os {
		if pf.add(p, o) {
			changed = true
		}
	}
	return changed
}

func (pf *paramFlow) collectParams() {
	addParam := func(n *callgraph.Node, name *ast.Ident) *types.Var {
		v, _ := pf.pass.TypesInfo.Defs[name].(*types.Var)
		if v != nil {
			pf.owner[v] = n
		}
		return v
	}
	for _, n := range pf.g.Nodes {
		var ft *ast.FuncType
		if n.Decl != nil {
			ft = n.Decl.Type
			if n.Decl.Recv != nil {
				for _, f := range n.Decl.Recv.List {
					for _, name := range f.Names {
						pf.recv[n] = addParam(n, name)
					}
				}
			}
		} else {
			ft = n.Lit.Type
		}
		var ps []*types.Var
		for _, f := range ft.Params.List {
			if len(f.Names) == 0 {
				ps = append(ps, nil) // unnamed: placeholder keeps positions aligned
				continue
			}
			for _, name := range f.Names {
				ps = append(ps, addParam(n, name))
			}
		}
		pf.params[n] = ps
	}
}

// collectDerived records type-switch and type-assertion bindings:
// `switch d := dst.(type)` binds one implicit variable per case
// clause, and `d, ok := dst.(T)` binds one explicitly; both carry the
// operand's provenance.
func (pf *paramFlow) collectDerived() {
	info := pf.pass.TypesInfo
	for _, f := range pf.pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.TypeSwitchStmt:
				as, ok := x.Assign.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 {
					return true
				}
				ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr)
				if !ok {
					return true
				}
				src := identVar(info, ta.X)
				if src == nil {
					return true
				}
				for _, stmt := range x.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					if iv, ok := info.Implicits[cc].(*types.Var); ok {
						pf.derived[iv] = src
					}
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE || len(x.Rhs) != 1 {
					return true
				}
				ta, ok := ast.Unparen(x.Rhs[0]).(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil {
					return true
				}
				src := identVar(info, ta.X)
				if src == nil {
					return true
				}
				if id, ok := x.Lhs[0].(*ast.Ident); ok {
					if dv, ok := info.Defs[id].(*types.Var); ok {
						pf.derived[dv] = src
					}
				}
			}
			return true
		})
	}
}

// flowEdge propagates one synchronous call site's arguments into the
// callee's parameters; it reports whether any parameter context set
// grew.
func (pf *paramFlow) flowEdge(c *callgraph.Node, e callgraph.Edge) bool {
	callee := e.Callee
	recv := pf.recv[callee]
	ps := pf.params[callee]
	if recv == nil && len(ps) == 0 {
		return false
	}
	changed := false
	conservative := func(p *types.Var) {
		if p != nil && pf.addAll(p, pf.origins[c]) {
			changed = true
		}
	}
	if e.Site == nil {
		conservative(recv)
		for _, p := range ps {
			conservative(p)
		}
		return changed
	}
	flowArg := func(p *types.Var, arg ast.Expr) {
		if p == nil {
			return
		}
		switch kind, q := pf.classify(c, arg); kind {
		case argFresh:
		case argParam:
			if pf.addAll(p, pf.ctxs[q]) {
				changed = true
			}
		default:
			conservative(p)
		}
	}

	args := e.Site.Args
	recvMatched := recv == nil
	if sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr); ok && recv != nil {
		if s := pf.pass.TypesInfo.Selections[sel]; s != nil {
			switch s.Kind() {
			case types.MethodVal: // x.M(args): the receiver is sel.X
				flowArg(recv, sel.X)
				recvMatched = true
			case types.MethodExpr: // T.M(x, args): the receiver is args[0]
				if len(args) > 0 {
					flowArg(recv, args[0])
					args = args[1:]
					recvMatched = true
				}
			}
		}
	}
	if !recvMatched {
		conservative(recv) // method value call, or a shape we can't match
	}
	for i, p := range ps {
		if i >= len(args) {
			// Fewer arguments than parameters: a tuple call f(g()).
			// The values are call results — shared by definition of
			// classify — so stay conservative.
			conservative(p)
			continue
		}
		flowArg(p, args[i])
	}
	// Variadic extras all land in the final parameter.
	for i := len(ps); i < len(args) && len(ps) > 0; i++ {
		flowArg(ps[len(ps)-1], args[i])
	}
	return changed
}

type argKind int

const (
	argFresh  argKind = iota // constructs or names an unpublished object
	argParam                 // hands through a parameter of the caller
	argShared                // anything else: field, map lookup, call result
)

// classify decides what one call argument contributes: nothing (a
// fresh or valueless argument), the caller's parameter contexts (a
// handed-through parameter, returned as q), or the caller's full
// context set.
func (pf *paramFlow) classify(c *callgraph.Node, arg ast.Expr) (kind argKind, q *types.Var) {
	info := pf.pass.TypesInfo
	e := ast.Unparen(arg)
	if tv, ok := info.Types[e]; ok && (tv.IsNil() || tv.Value != nil) {
		return argFresh, nil // nil and constants carry no mutable object
	}
	if dataflow.FreshExpr(info, e) {
		return argFresh, nil
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		// A selector or index path names a sub-object whose own sharing
		// the parameter's contexts do not bound: shared.
		return argShared, nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		return argShared, nil
	}
	if dataflow.FreshLocal(pf.pass.Files, info, pf.pass.Pkg, v) {
		return argFresh, nil
	}
	if p := pf.resolve(c, v); p != nil {
		return argParam, p
	}
	return argShared, nil
}

// identVar resolves a bare (possibly parenthesized or address-taken)
// identifier expression to its variable, or nil.
func identVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}
