// Package maporder flags iteration over Go maps whose loop body does
// something order-sensitive. Map iteration order is randomized per
// run, so any observable effect produced inside `for ... range m`
// without a subsequent deterministic sort silently breaks the
// bit-identical reproduction of Table II — historically the dominant
// determinism bug class in this codebase.
//
// A range over a map is reported when its body:
//
//   - appends to a slice declared outside the loop, unless a
//     sort.*/slices.Sort* call on that slice appears later in the same
//     enclosing block (collect-then-sort is the sanctioned idiom);
//   - sends on a channel;
//   - writes output (fmt.Print*/Fprint*/errors via fmt, or Write* /
//     WriteString-style method calls on builders and writers);
//   - accumulates into a floating-point variable declared outside the
//     loop (float addition is not associative, so the rounding of the
//     total depends on iteration order);
//   - calls a scheduling decision function (StartJob, GrantDyn,
//     RejectDyn, Preempt, CancelJob, ...), which must never be driven
//     in map order.
//
// Findings are suppressed with `//lint:maporder <reason>` when the
// order provably does not matter (e.g. the consumer re-sorts).
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name:      "maporder",
	Doc:       "flags order-sensitive work performed while ranging over a map",
	Directive: "maporder",
	Run:       run,
}

// decisionFuncs are callee names that commit scheduling decisions;
// invoking one per map entry makes the schedule depend on map order.
var decisionFuncs = map[string]bool{
	"StartJob": true, "GrantDyn": true, "RejectDyn": true,
	"Preempt": true, "CancelJob": true, "CompleteJob": true,
	"Submit": true, "SubmitAt": true, "RequestDyn": true,
	"SubmitBatch": true,
}

// noMapRangePkgs ban ranging over a map outright, order-sensitive body
// or not, each with its package-specific rationale in the finding. The
// campaign worker pool dispatches tasks and merges results strictly by
// slice index — a map range anywhere in it is the one way
// completion-order nondeterminism could leak back into campaign
// output. The fairtree fold/factor/history paths promise byte-identical
// results at any producer count, which holds only because every
// traversal is over dense NodeID arrays or sorted stamps. In both, the
// whole construct is rejected and the finding cannot be suppressed.
var noMapRangePkgs = map[string]string{
	"campaign": "range over map in the campaign package: dispatch and merge must be slice-indexed so results never depend on completion or map order",
	"fairtree": "range over map in the fairtree package: folds, factors and history rows must walk dense NodeID arrays or sorted stamps so usage accounting stays byte-identical at any producer count",
}

func run(pass *analysis.Pass) error {
	noRangeMsg := noMapRangePkgs[pass.Pkg.Name()]
	for _, f := range pass.Files {
		v := &visitor{pass: pass, noRangeMsg: noRangeMsg}
		ast.Walk(v, f)
	}
	return nil
}

// visitor tracks enclosing statement lists so the append check can
// look for sorts after the range loop.
type visitor struct {
	pass       *analysis.Pass
	blocks     []([]ast.Stmt)
	noRangeMsg string // non-empty: package-level map-range ban message
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.BlockStmt:
		v.blocks = append(v.blocks, n.List)
		return v
	case *ast.CaseClause:
		v.blocks = append(v.blocks, n.Body)
		return v
	case *ast.CommClause:
		v.blocks = append(v.blocks, n.Body)
		return v
	case *ast.RangeStmt:
		if v.isMapRange(n) {
			if v.noRangeMsg != "" {
				v.pass.Report(analysis.Diagnostic{
					Pos:            n.Pos(),
					Message:        v.noRangeMsg,
					Unsuppressable: true,
				})
			} else {
				v.checkMapRange(n)
			}
		}
		return v
	case nil:
		return nil
	}
	return v
}

func (v *visitor) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := v.pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (v *visitor) checkMapRange(rs *ast.RangeStmt) {
	pass := v.pass
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "send on channel inside range over map: receiver observes random map order")
		case *ast.AssignStmt:
			v.checkAssign(rs, n)
		case *ast.CallExpr:
			v.checkCall(rs, n)
		}
		return true
	})
}

func (v *visitor) checkAssign(rs *ast.RangeStmt, as *ast.AssignStmt) {
	pass := v.pass
	// Float accumulation: total += v with total declared outside the
	// loop.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) == 1 && v.declaredOutside(as.Lhs[0], rs) && isFloat(pass, as.Lhs[0]) {
			pass.Reportf(as.Pos(), "floating-point accumulation into %s inside range over map: float addition is not associative, so the result depends on random map order; iterate sorted keys instead", types.ExprString(as.Lhs[0]))
		}
	}
	// append to an outer slice.
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		target := as.Lhs[i]
		if !v.declaredOutside(target, rs) {
			continue
		}
		if v.sortedAfter(rs, target) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside range over map without a subsequent deterministic sort", types.ExprString(target))
	}
}

func (v *visitor) checkCall(rs *ast.RangeStmt, call *ast.CallExpr) {
	pass := v.pass
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				if pn.Imported().Path() == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
					pass.Reportf(call.Pos(), "fmt.%s inside range over map writes output in random map order", name)
					return
				}
			}
		}
		if strings.HasPrefix(name, "Write") && pass.TypesInfo.Selections[fun] != nil {
			pass.Reportf(call.Pos(), "%s inside range over map writes output in random map order", types.ExprString(fun))
			return
		}
		if decisionFuncs[name] {
			pass.Reportf(call.Pos(), "scheduling decision %s driven by range over map: decisions must not depend on map order", types.ExprString(fun))
		}
	case *ast.Ident:
		if decisionFuncs[fun.Name] {
			pass.Reportf(call.Pos(), "scheduling decision %s driven by range over map: decisions must not depend on map order", fun.Name)
		}
	}
}

// declaredOutside reports whether the base object of expr was declared
// before the range statement (or is a field / package-level variable).
func (v *visitor) declaredOutside(expr ast.Expr, rs *ast.RangeStmt) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := v.pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return false
		}
		return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
	case *ast.SelectorExpr:
		return true // field or qualified access: storage outlives the loop
	case *ast.IndexExpr:
		return v.declaredOutside(e.X, rs)
	}
	return false
}

func isFloat(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether a statement after rs in one of the
// enclosing statement lists applies a deterministic sort to target.
func (v *visitor) sortedAfter(rs *ast.RangeStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	for _, list := range v.blocks {
		idx := -1
		for i, st := range list {
			if containsNode(st, rs) {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		for _, st := range list[idx+1:] {
			found := false
			ast.Inspect(st, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || found {
					return !found
				}
				if v.isSortCall(call, want) {
					found = true
					return false
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}

// isSortCall recognizes sort.X(target, ...) / slices.SortX(target,
// ...) style calls whose first argument is the collected slice.
func (v *visitor) isSortCall(call *ast.CallExpr, want string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := v.pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	if p != "sort" && p != "slices" {
		return false
	}
	for _, arg := range call.Args {
		if types.ExprString(arg) == want {
			return true
		}
	}
	return false
}

func containsNode(root ast.Node, target ast.Node) bool {
	if root == nil {
		return false
	}
	return root.Pos() <= target.Pos() && target.End() <= root.End()
}
