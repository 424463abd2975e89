// Package chanlife enforces the channel ownership protocol in the
// concurrency-bearing packages: every channel-typed struct field that
// is ever closed has exactly one declared *closing owner*, the close
// happens only in that owner's synchronous context, and no send or
// second close is reachable after the close. Closing a channel twice
// or sending on a closed channel panics the daemon; the Go runtime
// only reports it when a test happens to reach the interleaving, so
// the protocol is declared on the field and machine-checked:
//
//	closed chan struct{} //schedlint:chan-owner Close
//
// names the function or method (of the enclosing struct, or a
// package-level function) that owns the close. The checks:
//
//   - a close of a channel field with no chan-owner declaration is a
//     finding — the protocol must be on the field for the next reader;
//   - a close outside the owner's context is a finding. The context is
//     the owner, everything it calls transitively, and the goroutines
//     spawned *from* that context: a worker goroutine that defers
//     close(done) on exit is its spawner's delegate — the Start/Close
//     lifecycle idiom — while a goroutine some unrelated function
//     spawns is not;
//   - within each function, a branch-sensitive walk tracks may-closed
//     channel fields: a second close, a send after a close, or a call
//     to a function that may close/send again is a finding.
//     Reassigning the field (s.ch = make(...)) resets the fact — the
//     reconnect loops recycle their channels this way;
//   - a chan-owner declaration whose function does not resolve, sits
//     on a non-channel field, or whose field is never closed in the
//     package is a finding: stale protocol declarations are worse
//     than none.
//
// What it does not prove: closes reached through aliases of the
// channel value (ch := s.done; close(ch)), cross-package closes, and
// mutual exclusion between two conditional closes in *different*
// functions of the owner context — the owner is trusted to serialize
// itself. Findings can be suppressed with `//lint:chanlife <reason>`.
package chanlife

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the chanlife check.
var Analyzer = &analysis.Analyzer{
	Name:      "chanlife",
	Doc:       "channel fields have one declared closing owner, closes stay in the owner's synchronous context, and no send-after-close or double-close is reachable",
	Directive: "chanlife",
	Tests:     true,
	Packages:  analysis.Concurrent,
	Run:       run,
}

// chanField is one tracked channel field.
type chanField struct {
	v     *types.Var
	owner *types.Func // declared closing owner (nil: none declared)
	decl  token.Pos   // marker position, for orphan reports
}

type analyzer struct {
	pass   *analysis.Pass
	graph  *callgraph.Graph
	fields map[*types.Var]*chanField
	// mayClose / maySend are per-node interprocedural summaries.
	mayClose map[*callgraph.Node]map[*types.Var]bool
	maySend  map[*callgraph.Node]map[*types.Var]bool
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:     pass,
		fields:   map[*types.Var]*chanField{},
		mayClose: map[*callgraph.Node]map[*types.Var]bool{},
		maySend:  map[*callgraph.Node]map[*types.Var]bool{},
	}
	a.collectFields()
	if len(a.fields) == 0 {
		return nil
	}
	a.graph = callgraph.Build(pass)
	dataflow.Fixpoint(a.graph, a.update)

	a.checkOwnership()
	for _, n := range a.graph.Nodes {
		a.walkNode(n)
	}
	return nil
}

// collectFields indexes channel-typed struct fields and their
// chan-owner declarations.
func (a *analyzer) collectFields() {
	info := a.pass.TypesInfo
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					v, ok := info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
						a.fields[v] = &chanField{v: v}
					}
				}
			}
			return true
		})
	}
	for _, fm := range dataflow.FieldMarkers(a.pass.Files, a.pass.TypesInfo, "chan-owner") {
		cf := a.fields[fm.Field]
		if cf == nil {
			a.pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("chan-owner marker on %s, which is not a channel field", fm.Field.Name())})
			continue
		}
		// The first token names the owner; anything after it is
		// commentary for the reader.
		name, _, _ := strings.Cut(strings.TrimSpace(fm.Args), " ")
		if name == "" {
			a.pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("malformed chan-owner marker on %s: want `chan-owner <func>`", fm.Field.Name())})
			continue
		}
		owner := dataflow.ResolveFunc(a.pass.Pkg, fm.Struct, name)
		if owner == nil {
			a.pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("chan-owner %q on %s: no such method on %s or package function", name, fm.Field.Name(), fm.Struct)})
			continue
		}
		cf.owner = owner
		cf.decl = fm.Pos
	}
}

// closedField resolves close(arg)'s argument to a tracked field.
func (a *analyzer) closedField(call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	return a.fieldOf(call.Args[0])
}

// fieldOf resolves an expression to a tracked channel field.
func (a *analyzer) fieldOf(e ast.Expr) *types.Var {
	path := dataflow.SelectorPath(a.pass.TypesInfo, e)
	if len(path) < 2 {
		return nil
	}
	last := path[len(path)-1]
	if _, ok := a.fields[last]; !ok {
		return nil
	}
	return last
}

// update recomputes one node's may-close / may-send summary.
func (a *analyzer) update(n *callgraph.Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	closes := map[*types.Var]bool{}
	sends := map[*types.Var]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if n.Lit != x {
				return false
			}
		case *ast.CallExpr:
			if f := a.closedField(x); f != nil {
				closes[f] = true
			}
		case *ast.SendStmt:
			if f := a.fieldOf(x.Chan); f != nil {
				sends[f] = true
			}
		}
		return true
	})
	for _, e := range n.Calls {
		for f := range a.mayClose[e.Callee] {
			closes[f] = true
		}
		for f := range a.maySend[e.Callee] {
			sends[f] = true
		}
	}
	grew := len(closes) != len(a.mayClose[n]) || len(sends) != len(a.maySend[n])
	a.mayClose[n] = closes
	a.maySend[n] = sends
	return grew
}

// checkOwnership verifies the declaration side: every close site has a
// declared owner and sits in that owner's synchronous context, and
// every declaration corresponds to a real close.
func (a *analyzer) checkOwnership() {
	// Owner contexts: the owner node, everything it reaches through
	// synchronous calls, and the goroutines spawned from that context
	// (the worker that defers its own close is the spawner's delegate).
	inContext := map[*types.Func]map[*callgraph.Node]bool{}
	context := func(owner *types.Func) map[*callgraph.Node]bool {
		if s := inContext[owner]; s != nil {
			return s
		}
		s := map[*callgraph.Node]bool{}
		if root := a.graph.NodeOf(owner); root != nil {
			var visit func(n *callgraph.Node)
			visit = func(n *callgraph.Node) {
				if s[n] {
					return
				}
				s[n] = true
				for _, e := range n.Calls {
					visit(e.Callee)
				}
				for _, sp := range n.Spawns {
					if sp.Callee != nil {
						visit(sp.Callee)
					}
				}
			}
			visit(root)
		}
		inContext[owner] = s
		return s
	}

	closed := map[*types.Var]bool{}
	for _, n := range a.graph.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && n.Lit != lit {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := a.closedField(call)
			if f == nil {
				return true
			}
			closed[f] = true
			cf := a.fields[f]
			if cf.owner == nil {
				a.pass.Reportf(call.Pos(), "close of channel field %s with no declared owner; annotate the field `//schedlint:chan-owner <func>`", f.Name())
				return true
			}
			if !context(cf.owner)[n] {
				a.pass.Reportf(call.Pos(), "close of channel field %s in %s, outside its declared owner %s's synchronous context", f.Name(), n.Name, cf.owner.Name())
			}
			return true
		})
	}
	for _, cf := range a.fields {
		if cf.owner != nil && !closed[cf.v] {
			a.pass.Reportf(cf.decl, "channel field %s declares closing owner %s but is never closed in this package; drop the stale declaration", cf.v.Name(), cf.owner.Name())
		}
	}
}

// chState is the walker state: the may-closed channel fields with the
// position of the close that established each fact.
type chState struct {
	closed map[*types.Var]token.Pos
}

func (s *chState) Clone() dataflow.State {
	c := &chState{closed: make(map[*types.Var]token.Pos, len(s.closed))}
	for k, v := range s.closed {
		c.closed[k] = v
	}
	return c
}

func (s *chState) Join(o dataflow.State) {
	for k, v := range o.(*chState).closed {
		if _, ok := s.closed[k]; !ok {
			s.closed[k] = v
		}
	}
}

func (s *chState) Equal(o dataflow.State) bool {
	os := o.(*chState)
	if len(s.closed) != len(os.closed) {
		return false
	}
	for k := range s.closed {
		if _, ok := os.closed[k]; !ok {
			return false
		}
	}
	return true
}

// walkNode runs the branch-sensitive close/send walk over one
// function.
func (a *analyzer) walkNode(n *callgraph.Node) {
	body := n.Body()
	if body == nil {
		return
	}
	dataflow.Walk(body, &chState{closed: map[*types.Var]token.Pos{}}, dataflow.Hooks{
		Transfer: func(st dataflow.State, node ast.Node) { a.transfer(st.(*chState), node) },
		Defer:    func(st dataflow.State, call *ast.CallExpr) { a.applyCall(st.(*chState), call) },
	})
}

// transfer applies one atomic statement.
func (a *analyzer) transfer(st *chState, node ast.Node) {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if f := a.closedField(x); f != nil {
				if prev, ok := st.closed[f]; ok {
					a.pass.Reportf(x.Pos(), "second close of channel field %s may be reachable (closed at line %d)",
						f.Name(), a.pass.Fset.Position(prev).Line)
				}
				st.closed[f] = x.Pos()
				return true
			}
			a.applyCall(st, x)
		case *ast.SendStmt:
			if f := a.fieldOf(x.Chan); f != nil {
				if prev, ok := st.closed[f]; ok {
					a.pass.Reportf(x.Pos(), "send on channel field %s may follow its close (closed at line %d)",
						f.Name(), a.pass.Fset.Position(prev).Line)
				}
			}
		}
		return true
	})
	// Reassignment recycles the channel: the closed fact dies.
	for _, w := range dataflow.FieldWritesIn(a.pass.TypesInfo, node, func(v *types.Var) bool {
		_, ok := a.fields[v]
		return ok
	}) {
		delete(st.closed, w.Field)
	}
}

// applyCall folds a same-package callee's may-close / may-send summary
// into the state.
func (a *analyzer) applyCall(st *chState, call *ast.CallExpr) {
	callee := a.graph.Resolve(a.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	for f := range a.mayClose[callee] {
		if prev, ok := st.closed[f]; ok {
			a.pass.Reportf(call.Pos(), "call to %s may close channel field %s again (closed at line %d)",
				callee.Name, f.Name(), a.pass.Fset.Position(prev).Line)
		} else {
			st.closed[f] = call.Pos()
		}
	}
	for f := range a.maySend[callee] {
		if prev, ok := st.closed[f]; ok {
			a.pass.Reportf(call.Pos(), "call to %s may send on channel field %s after its close (closed at line %d)",
				callee.Name, f.Name(), a.pass.Fset.Position(prev).Line)
		}
	}
}
