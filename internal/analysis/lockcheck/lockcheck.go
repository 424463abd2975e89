// Package lockcheck enforces the documented locking discipline of the
// Concurrent packages (the daemons, rms, campaign, core, proto, tm,
// clock). Struct fields annotated
//
//	foo map[int]*Job // guarded by mu
//
// must only be touched by functions that acquire that mutex on the
// same receiver (x.mu.Lock() or x.mu.RLock(), directly or deferred).
// Helper functions that run with the lock already held follow the
// *Locked naming convention (killLocked), which the analyzer honours;
// anything else needs a `//lint:locked <reason>` directive.
//
// Independently, any function that calls X.Lock() without a matching
// X.Unlock() (or the RLock/RUnlock pair) in the same function is
// flagged: lock handoff across function boundaries is disallowed.
//
// Function literals are analyzed as separate functions: a goroutine or
// timer callback must take the lock itself, it does not inherit the
// critical section of the function that created it.
package lockcheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockcheck",
	Doc:       "checks `// guarded by mu` field annotations and Lock/Unlock pairing in concurrent packages",
	Directive: "locked",
	Packages:  analysis.Concurrent,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	guarded := collectGuardedFields(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, guarded, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

// collectGuardedFields maps annotated struct fields to the name of the
// mutex that guards them.
func collectGuardedFields(pass *analysis.Pass) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := analysis.GuardedBy(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// lockOp is one Lock-family call on a rendered mutex expression
// ("s.mu").
type lockOp struct {
	expr string
	op   string // Lock, Unlock, RLock, RUnlock, TryLock
	pos  ast.Node
}

// checkFunc analyzes one function body, excluding nested function
// literals (each is checked on its own).
func checkFunc(pass *analysis.Pass, guarded map[*types.Var]string, name string, body *ast.BlockStmt) {
	var ops []lockOp
	var accesses []*ast.SelectorExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				checkFunc(pass, guarded, name+" (func literal)", n.Body)
				return false
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
					ops = append(ops, lockOp{expr: types.ExprString(sel.X), op: sel.Sel.Name, pos: n})
				}
			}
		case *ast.SelectorExpr:
			accesses = append(accesses, n)
		}
		return true
	})

	held := make(map[string]bool)
	for _, op := range ops {
		if op.op == "Lock" || op.op == "RLock" || op.op == "TryLock" {
			held[op.expr] = true
		}
	}

	// Lock/Unlock pairing per mutex expression.
	for _, mu := range sortedKeys(held) {
		var locks, unlocks, rlocks, runlocks int
		for _, op := range ops {
			if op.expr != mu {
				continue
			}
			switch op.op {
			case "Lock", "TryLock":
				locks++
			case "Unlock":
				unlocks++
			case "RLock":
				rlocks++
			case "RUnlock":
				runlocks++
			}
		}
		report := func(kind string) {
			for _, op := range ops {
				if op.expr == mu && (op.op == kind || (kind == "Lock" && op.op == "TryLock")) {
					pass.Reportf(op.pos.Pos(), "%s.%s() in %s without a matching %sUnlock in the same function; lock handoff across functions is disallowed", mu, op.op, name, map[string]string{"Lock": "", "RLock": "R"}[kind])
					return
				}
			}
		}
		if locks > 0 && unlocks == 0 {
			report("Lock")
		}
		if rlocks > 0 && runlocks == 0 {
			report("RLock")
		}
	}

	// Guarded field accesses.
	if strings.HasSuffix(name, "Locked") || strings.Contains(name, "Locked (func literal)") {
		return
	}
	for _, sel := range accesses {
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			continue
		}
		mu, ok := guarded[v]
		if !ok {
			continue
		}
		// A dotted annotation names the lock expression verbatim; a bare
		// one names a sibling field of the same receiver.
		need := mu
		if !strings.Contains(mu, ".") {
			need = types.ExprString(sel.X) + "." + mu
		}
		if !held[need] {
			pass.Reportf(sel.Pos(), "access to %s (guarded by %s) in %s without %s held; lock it, rename the helper to ...Locked, or annotate //lint:locked <reason>", types.ExprString(sel), mu, name, need)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
