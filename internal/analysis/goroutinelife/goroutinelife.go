// Package goroutinelife enforces the goroutine lifecycle contract in
// the deterministic and daemon packages: every `go` statement must
// have a provable shutdown path, so no daemon leaks goroutines across
// a Close and no simulation run leaves background work behind.
//
// A spawned function passes when it — or anything it synchronously
// calls, transitively through the package callgraph — does one of:
//
//   - joins a sync.WaitGroup (a call to (*sync.WaitGroup).Done, the
//     `wg.Add(1); go func(){ defer wg.Done(); ... }()` idiom: whoever
//     Waits owns the join);
//   - observes a shutdown signal: receives from (or selects on, or
//     ranges over) a channel whose name marks it as a lifecycle
//     channel (done, quit, stop, close/closed, exit, shutdown), or
//     checks a context (ctx.Done() / ctx.Err()).
//
// Anything else — including goroutines spawned onto external functions
// the analyzer cannot see into — is reported. Audited exceptions carry
// `//lint:goroutine <reason>` on or above the `go` statement (or on
// the enclosing function), e.g. a worker joined by a synchronous
// channel receive immediately below the spawn.
//
// The name-based channel heuristic is deliberate: it makes the
// lifecycle contract part of the code's vocabulary. A goroutine that
// is genuinely guarded by a channel named `c` does not pass review
// here — rename the channel so the guard is visible, or annotate why
// not.
package goroutinelife

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the goroutinelife check. It patrols everywhere
// nodeterminism does: a leaked goroutine either breaks determinism or
// outlives a daemon Close.
var Analyzer = &analysis.Analyzer{
	Name:      "goroutinelife",
	Doc:       "every go statement in deterministic/daemon packages needs a provable shutdown path (WaitGroup join, done-channel or context guard)",
	Directive: "goroutine",
	Packages:  analysis.Deterministic | analysis.Daemon | analysis.Tooling,
	Run:       run,
}

// shutdownName marks lifecycle channels.
var shutdownName = regexp.MustCompile(`(?i)(done|quit|stop|clos|exit|shutdown)`)

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass)

	// Per-node base attributes, then a fixpoint over synchronous call
	// edges: a caller inherits its callees' join/guard properties.
	joined := make(map[*callgraph.Node]bool, len(g.Nodes))
	guarded := make(map[*callgraph.Node]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		j, gu := baseAttrs(pass, n)
		joined[n] = j
		guarded[n] = gu
	}
	dataflow.Fixpoint(g, func(n *callgraph.Node) bool {
		changed := false
		for _, e := range n.Calls {
			if joined[e.Callee] && !joined[n] {
				joined[n] = true
				changed = true
			}
			if guarded[e.Callee] && !guarded[n] {
				guarded[n] = true
				changed = true
			}
		}
		return changed
	})

	for _, n := range g.Nodes {
		for _, sp := range n.Spawns {
			callee := sp.Callee
			if callee == nil {
				pass.Reportf(sp.Stmt.Pos(), "goroutine spawned onto a function the analyzer cannot see into (external function or function value); prove its shutdown path or annotate //lint:goroutine <reason>")
				continue
			}
			if joined[callee] || guarded[callee] {
				continue
			}
			pass.Reportf(sp.Stmt.Pos(), "goroutine started in %s has no provable shutdown path: join it via a sync.WaitGroup, guard its loop with a done/quit channel or context check, or annotate //lint:goroutine <reason>", n.Name)
		}
	}
	return nil
}

// baseAttrs inspects one function body (excluding nested literals) for
// the two passing conditions.
func baseAttrs(pass *analysis.Pass, n *callgraph.Node) (joined, guarded bool) {
	body := n.Body()
	if body == nil {
		return false, false
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if n.Lit != x {
				return false
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Done":
					if isWaitGroup(pass, sel.X) {
						joined = true
					}
					if isContext(pass, sel.X) {
						guarded = true
					}
				case "Err":
					if isContext(pass, sel.X) {
						guarded = true
					}
				}
			}
		case *ast.UnaryExpr:
			// <-ch where ch is a lifecycle channel.
			if x.Op.String() == "<-" && isShutdownChan(pass, x.X) {
				guarded = true
			}
		case *ast.RangeStmt:
			if isShutdownChan(pass, x.X) {
				guarded = true
			}
		}
		return true
	})
	return joined, guarded
}

func isWaitGroup(pass *analysis.Pass, expr ast.Expr) bool {
	return typeIs(pass, expr, "sync.WaitGroup")
}

func isContext(pass *analysis.Pass, expr ast.Expr) bool {
	return typeIs(pass, expr, "context.Context")
}

func typeIs(pass *analysis.Pass, expr ast.Expr, name string) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.String() == name
}

// isShutdownChan reports whether expr is a channel whose terminal name
// marks it as a lifecycle channel.
func isShutdownChan(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	var name string
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		// ctx.Done() and friends are handled by the context check; a
		// method returning a lifecycle channel counts by method name.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			name = sel.Sel.Name
		}
	}
	return name != "" && shutdownName.MatchString(name)
}
