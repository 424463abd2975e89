// Package epochguard proves the ChangeTracker epoch discipline: every
// same-package call path that writes an epoch-guarded field must reach
// the declared bump function before returning. A missed bump is the
// worst kind of scheduler bug — nothing crashes, the epoch-keyed
// iteration cache silently serves stale plans and a requeued job sits
// in the queue forever — so the convention is machine-checked.
//
// Fields opt in with a marker on their declaration:
//
//	queued []*job.Job //schedlint:epoch-guarded by bumpQueue
//
// naming a same-package function or a method of the enclosing struct.
// A second marker declares bump equivalence on function declarations:
//
//	//schedlint:epoch-bump subsumes bump
//	func (s *Server) bumpQueue() { ... }
//
// meaning a call to bumpQueue discharges obligations declared `by
// bump` too (the queue epoch bump advances the state epoch as well).
//
// The check runs on the dataflow walker over the package call graph:
// each function gets a summary — "may a guarded write reach my return
// un-bumped, entered clean/dirty?" — closed to a fixpoint so helpers
// that write without bumping are fine as long as every entry path
// bumps after them, and helpers that always bump (killLocked) clean
// their callers' pending writes. Violations are reported at analysis
// entry points: exported functions and functions (or literals) with
// no same-package synchronous callers, including spawned goroutines —
// once those return, nothing can bump on their behalf.
//
// A call of a pointer-receiver method on a guarded field
// (s.queue.Push(j)) counts as a write to the field.
//
// What it does not prove: writes through aliases of the guarded
// struct (q := s.queued; q[0] = ...), mutations behind other
// cross-package calls, and writes to fields of objects created inside
// the function itself (fresh, unpublished state has no observers and
// is exempt).
// Findings can be suppressed with `//lint:epochguard <reason>`.
package epochguard

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

// Analyzer is the epochguard check.
var Analyzer = &analysis.Analyzer{
	Name:      "epochguard",
	Doc:       "writes to //schedlint:epoch-guarded fields must reach the declared bump function on every return path",
	Directive: "epochguard",
	Run:       run,
}

// group is one guard obligation: the fields declared `by` one bump
// function, and the set of functions that discharge it.
type group struct {
	bump   *types.Func          // the declared bump function
	fields map[*types.Var]bool  // guarded fields
	equiv  map[*types.Func]bool // bump + everything that subsumes it
	label  string               // "Server.bumpLocked", for messages
}

func run(pass *analysis.Pass) error {
	groups := collectGroups(pass)
	if len(groups) == 0 {
		return nil
	}
	fieldGroup := map[*types.Var]int{}
	for gi, g := range groups {
		for f := range g.fields {
			fieldGroup[f] = gi
		}
	}

	graph := callgraph.Build(pass)
	a := &analyzer{
		pass:       pass,
		groups:     groups,
		fieldGroup: fieldGroup,
		graph:      graph,
		summaries:  map[*callgraph.Node]*summary{},
	}
	dataflow.Fixpoint(graph, a.update)

	// Violations surface at entry points: exported declarations and
	// nodes nothing in the package calls synchronously (spawned
	// goroutines, callback literals, unexported interface methods).
	callers := dataflow.SyncCallers(graph)
	reported := map[string]bool{}
	for _, n := range graph.Nodes {
		exported := n.Decl != nil && n.Decl.Name.IsExported()
		if !exported && callers[n] > 0 {
			continue
		}
		sum := a.summaries[n]
		if sum == nil {
			continue
		}
		for gi, g := range groups {
			if !sum.out0[gi] {
				continue
			}
			w := sum.wit0[gi]
			key := fmt.Sprintf("%d:%d", gi, w.pos)
			if reported[key] {
				continue
			}
			reported[key] = true
			pass.Reportf(w.pos, "%s may reach return of %s without %s()",
				w.what, n.Name, g.label)
		}
	}
	return nil
}

// collectGroups resolves the field and bump markers into guard groups,
// reporting malformed or unresolvable markers as unsuppressable.
func collectGroups(pass *analysis.Pass) []*group {
	fields := dataflow.FieldMarkers(pass.Files, pass.TypesInfo, "epoch-guarded")
	if len(fields) == 0 {
		return nil
	}
	var groups []*group
	byBump := map[*types.Func]*group{}
	for _, fm := range fields {
		parts := strings.Fields(fm.Args)
		var name string
		if len(parts) == 2 && parts[0] == "by" {
			name = parts[1]
		}
		if name == "" {
			pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("malformed epoch-guarded marker %q: want `epoch-guarded by <func>`", fm.Args)})
			continue
		}
		bump := dataflow.ResolveFunc(pass.Pkg, fm.Struct, name)
		if bump == nil {
			pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("epoch-guarded bump %q: no such method on %s or package function", name, fm.Struct)})
			continue
		}
		g := byBump[bump]
		if g == nil {
			g = &group{
				bump:   bump,
				fields: map[*types.Var]bool{},
				equiv:  map[*types.Func]bool{bump: true},
				label:  fm.Struct + "." + name,
			}
			byBump[bump] = g
			groups = append(groups, g)
		}
		g.fields[fm.Field] = true
	}
	// Bump equivalence: `//schedlint:epoch-bump subsumes a, b` widens
	// the groups declared by those names.
	for _, m := range dataflow.FuncMarkers(pass.Files, pass.TypesInfo, "epoch-bump") {
		if m.Fn == nil {
			continue
		}
		rest, hasSubsumes := strings.CutPrefix(m.Args, "subsumes ")
		if m.Args != "" && !hasSubsumes {
			pass.Report(analysis.Diagnostic{Pos: m.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("malformed epoch-bump marker %q: want `epoch-bump [subsumes <func>[, <func>]]`", m.Args)})
			continue
		}
		subsumed := map[string]bool{}
		for _, s := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' }) {
			subsumed[s] = true
		}
		matched := false
		for _, g := range groups {
			if g.bump == m.Fn || subsumed[g.bump.Name()] {
				g.equiv[m.Fn] = true
				matched = true
			}
		}
		if hasSubsumes && !matched {
			pass.Report(analysis.Diagnostic{Pos: m.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("epoch-bump subsumes %s: no epoch-guarded field declares that bump", rest)})
		}
	}
	return groups
}

// witness records the site that made a group dirty, for the report.
type witness struct {
	pos  token.Pos
	what string
}

// summary is one function's transfer behavior per group: may a dirty
// fact reach its return when entered clean (out0) / already dirty
// (out1)?
type summary struct {
	out0, out1 []bool
	wit0       []witness
}

// egState is the walker state: the per-group may-dirty bit and its
// witness.
type egState struct {
	dirty []bool
	wit   []witness
}

func (s *egState) Clone() dataflow.State {
	c := &egState{dirty: append([]bool(nil), s.dirty...), wit: append([]witness(nil), s.wit...)}
	return c
}

func (s *egState) Join(o dataflow.State) {
	os := o.(*egState)
	for i := range s.dirty {
		if os.dirty[i] && !s.dirty[i] {
			s.dirty[i] = true
			s.wit[i] = os.wit[i]
		}
	}
}

func (s *egState) Equal(o dataflow.State) bool {
	os := o.(*egState)
	for i := range s.dirty {
		if s.dirty[i] != os.dirty[i] {
			return false
		}
	}
	return true
}

type analyzer struct {
	pass       *analysis.Pass
	groups     []*group
	fieldGroup map[*types.Var]int
	graph      *callgraph.Graph
	summaries  map[*callgraph.Node]*summary
}

// update recomputes one node's summary from its callees' current
// summaries; Fixpoint iterates until the may-bits stop growing.
func (a *analyzer) update(n *callgraph.Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	ng := len(a.groups)
	next := &summary{out0: make([]bool, ng), out1: make([]bool, ng), wit0: make([]witness, ng)}
	a.walk(body, false, next.out0, next.wit0)
	a.walk(body, true, next.out1, nil)
	prev := a.summaries[n]
	a.summaries[n] = next
	if prev == nil {
		return true
	}
	for i := 0; i < ng; i++ {
		if next.out0[i] != prev.out0[i] || next.out1[i] != prev.out1[i] {
			return true
		}
	}
	return false
}

// walk runs the dataflow walker over body with every group initially
// clean or dirty, accumulating the joined exit state into out/wit.
func (a *analyzer) walk(body *ast.BlockStmt, dirtyIn bool, out []bool, wit []witness) {
	ng := len(a.groups)
	init := &egState{dirty: make([]bool, ng), wit: make([]witness, ng)}
	if dirtyIn {
		for i := range init.dirty {
			init.dirty[i] = true
		}
	}
	dataflow.Walk(body, init, dataflow.Hooks{
		Transfer: func(st dataflow.State, node ast.Node) { a.transfer(st.(*egState), node) },
		Defer:    func(st dataflow.State, call *ast.CallExpr) { a.applyCall(st.(*egState), call) },
		Return: func(st dataflow.State, _ *ast.ReturnStmt) {
			s := st.(*egState)
			for i := range s.dirty {
				if s.dirty[i] && !out[i] {
					out[i] = true
					if wit != nil {
						wit[i] = s.wit[i]
					}
				}
			}
		},
	})
}

// transfer applies one atomic statement: same-package calls first
// (bump or summary), then guarded writes. A write and a bump in one
// statement therefore leaves the write pending — the conservative
// direction.
func (a *analyzer) transfer(st *egState, node ast.Node) {
	ast.Inspect(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			a.applyCall(st, call)
		}
		return true
	})
	tracked := func(v *types.Var) bool {
		_, ok := a.fieldGroup[v]
		return ok
	}
	writes := dataflow.FieldWritesIn(a.pass.TypesInfo, node, tracked)
	for _, w := range append(writes, a.methodWrites(node, tracked)...) {
		if a.freshRoot(w.Root) {
			continue
		}
		gi := a.fieldGroup[w.Field]
		st.dirty[gi] = true
		st.wit[gi] = witness{pos: w.Pos, what: "write to epoch-guarded field " + w.Field.Name()}
	}
}

// methodWrites returns the calls in node of a pointer-receiver method on
// a tracked field (s.queue.Push(j)). What the method does is out of the
// walker's sight when its type lives in another package, so taking the
// field's address for it counts as the write; a type meant for guarded
// fields reads through value receivers.
func (a *analyzer) methodWrites(node ast.Node, tracked func(*types.Var) bool) []dataflow.FieldWrite {
	var out []dataflow.FieldWrite
	ast.Inspect(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := a.pass.TypesInfo.Selections[sel]; s == nil || s.Kind() != types.MethodVal || !pointerRecv(s.Obj()) {
			return true
		}
		if path := dataflow.SelectorPath(a.pass.TypesInfo, sel.X); len(path) >= 2 && tracked(path[len(path)-1]) {
			out = append(out, dataflow.FieldWrite{Field: path[len(path)-1], Root: path[0], Path: path, Pos: call.Pos()})
		}
		return true
	})
	return out
}

// pointerRecv reports whether method m has a pointer receiver.
func pointerRecv(m types.Object) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().(*types.Pointer)
	return ok
}

// freshRoot reports whether the written object is one the function
// created itself (see dataflow.FreshLocal): constructor
// initialization of unpublished state is exempt from the bump
// obligation.
func (a *analyzer) freshRoot(root *types.Var) bool {
	return dataflow.FreshLocal(a.pass.Files, a.pass.TypesInfo, a.pass.Pkg, root)
}

// applyCall folds one call's effect into the state: a bump-equivalent
// call cleans its group; a same-package callee applies its summary
// transfer; everything else is a no-op.
func (a *analyzer) applyCall(st *egState, call *ast.CallExpr) {
	callee := a.graph.Resolve(a.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if callee.Func != nil {
		cleaned := false
		for gi, g := range a.groups {
			if g.equiv[callee.Func] {
				st.dirty[gi] = false
				cleaned = true
			}
		}
		if cleaned {
			return
		}
	}
	sum := a.summaries[callee]
	if sum == nil {
		return
	}
	for gi := range a.groups {
		var mayDirty bool
		if st.dirty[gi] {
			mayDirty = sum.out1[gi]
		} else {
			mayDirty = sum.out0[gi]
		}
		if mayDirty && !st.dirty[gi] {
			st.dirty[gi] = true
			st.wit[gi] = witness{pos: call.Pos(), what: "call to " + callee.Name + " (leaves a guarded write un-bumped)"}
			if sum.wit0[gi].pos.IsValid() {
				st.wit[gi] = sum.wit0[gi]
			}
		}
		st.dirty[gi] = mayDirty
	}
}
