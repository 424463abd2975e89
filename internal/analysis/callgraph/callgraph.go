// Package callgraph builds a package-level call graph from a
// type-checked package, the shared substrate of schedlint's
// interprocedural analyzers (lockorder, goroutinelife).
//
// Nodes are the package's function declarations plus every function
// literal (each literal is its own node: a goroutine or timer callback
// has its own dynamic extent and must not inherit its encloser's
// properties). Edges are *synchronous* calls only:
//
//   - direct calls of package-level functions (f(...)),
//   - method calls resolved through the type checker to a method
//     declared in this package (s.killLocked(...)),
//   - immediately-invoked function literals (func(){...}()),
//   - deferred calls (defer f() runs in the calling goroutine).
//
// A `go f(...)` statement is recorded as a Spawn, not a call edge: the
// spawned function runs concurrently, so held-lock sets must not
// propagate into it and shutdown obligations attach to it separately.
// Calls through function *values* (fields, parameters, variables) are
// conservatively unresolved — they produce no edge — and cross-package
// calls are out of scope by construction: the graph answers questions
// about one package's internal structure.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Node is one function in the graph.
type Node struct {
	// Func is the checker's object for declared functions and methods;
	// nil for function literals.
	Func *types.Func
	// Decl / Lit is the syntax (exactly one is non-nil).
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Name is a human-readable label ("(*Server).Close",
	// "registerMom (func literal)").
	Name string
	// Calls are the node's synchronous call edges in source order.
	Calls []Edge
	// Spawns are the node's `go` statements in source order.
	Spawns []Spawn
}

// Body returns the function's block (nil for bodyless declarations).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Edge is one synchronous call site.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	// Site is the call expression itself, for analyzers that match
	// arguments to the callee's parameters (sharedguard's parameter
	// flow).
	Site *ast.CallExpr
	// Deferred marks `defer f()` edges; they still run in the calling
	// goroutine, but at function exit.
	Deferred bool
}

// Spawn is one `go` statement.
type Spawn struct {
	// Callee is the spawned function's node when it is resolvable to a
	// literal or a same-package declaration; nil otherwise (a spawned
	// external function or function value).
	Callee *Node
	Stmt   *ast.GoStmt
}

// Graph is the package call graph.
type Graph struct {
	Nodes  []*Node
	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
}

// NodeOf resolves a declared function/method object to its node.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// Build returns the call graph of the pass's package, constructing it
// on first use and memoizing it on the pass's target: the graph is a
// pure function of the package syntax, and three analyzers consume it,
// so a shared run (cmd/schedlint) builds each package's graph once.
func Build(pass *analysis.Pass) *Graph {
	if pass.Cached != nil {
		return pass.Cached("callgraph", func() any { return build(pass) }).(*Graph)
	}
	return build(pass)
}

// build constructs the graph unconditionally.
func build(pass *analysis.Pass) *Graph {
	g := &Graph{byFunc: make(map[*types.Func]*Node), byLit: make(map[*ast.FuncLit]*Node)}
	// First pass: one node per declaration and per literal, so edges
	// can resolve forward references.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &Node{Decl: fd, Name: declName(pass, fd)}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				n.Func = fn
				g.byFunc[fn] = n
			}
			g.Nodes = append(g.Nodes, n)
			collectLits(pass, g, n.Name, fd.Body)
		}
	}
	// Second pass: edges and spawns, per node, excluding nested
	// literals (they are their own nodes).
	for _, n := range g.Nodes {
		g.wire(pass, n)
	}
	return g
}

// collectLits registers every function literal under root as a node.
func collectLits(pass *analysis.Pass, g *Graph, owner string, root ast.Node) {
	ast.Inspect(root, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			n := &Node{Lit: lit, Name: owner + " (func literal)"}
			g.byLit[lit] = n
			g.Nodes = append(g.Nodes, n)
		}
		return true
	})
}

func declName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return fmt.Sprintf("(%s).%s", types.ExprString(fd.Recv.List[0].Type), fd.Name.Name)
}

// wire fills one node's Calls and Spawns from its own body, stopping
// at nested literals.
func (g *Graph) wire(pass *analysis.Pass, n *Node) {
	body := n.Body()
	var walk func(x ast.Node, deferred bool, spawned map[*ast.CallExpr]bool)
	spawned := make(map[*ast.CallExpr]bool)
	walk = func(x ast.Node, deferred bool, spawned map[*ast.CallExpr]bool) {
		ast.Inspect(x, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if n.Lit != x {
					return false // nested literal: its own node
				}
			case *ast.GoStmt:
				n.Spawns = append(n.Spawns, Spawn{Callee: g.resolve(pass, x.Call), Stmt: x})
				spawned[x.Call] = true
			case *ast.DeferStmt:
				if callee := g.resolve(pass, x.Call); callee != nil {
					n.Calls = append(n.Calls, Edge{Callee: callee, Pos: x.Call.Pos(), Site: x.Call, Deferred: true})
				}
				spawned[x.Call] = true // edge recorded above; skip the plain-call case
			case *ast.CallExpr:
				if spawned[x] {
					return true // handled by the go/defer statement
				}
				if callee := g.resolve(pass, x); callee != nil {
					n.Calls = append(n.Calls, Edge{Callee: callee, Pos: x.Pos(), Site: x, Deferred: deferred})
				}
			}
			return true
		})
	}
	walk(body, false, spawned)
}

// resolve maps a call expression to a same-package node, or nil.
func (g *Graph) resolve(pass *analysis.Pass, call *ast.CallExpr) *Node {
	return g.Resolve(pass.TypesInfo, call)
}

// Resolve maps a call expression to its same-package node — declared
// function, method, or immediately-invoked literal — or nil. It is
// the exported form of the wiring resolver, for analyzers that need
// call targets at specific program points (the dataflow walkers
// resolve callees statement by statement rather than from the
// pre-wired edge list).
func (g *Graph) Resolve(info *types.Info, call *ast.CallExpr) *Node {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](...) — unwrap the index.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return g.byLit[fun]
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return g.byFunc[originOf(fn)]
		}
	case *ast.SelectorExpr:
		// Method call or qualified cross-package call; Uses resolves
		// both, and byFunc filters to this package.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return g.byFunc[originOf(fn)]
		}
	}
	return nil
}

// originOf strips generic instantiation so calls to f[int] resolve to
// the declaration node of f.
func originOf(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}
