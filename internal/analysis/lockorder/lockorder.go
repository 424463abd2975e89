// Package lockorder is the interprocedural deadlock check for the
// Concurrent packages. It follows held-lock sets *across*
// same-package calls on the callgraph and reports the shapes a
// per-function check cannot see:
//
//   - self-deadlock: a path that re-acquires a mutex it already holds
//     (f locks s.mu and calls g, which — possibly transitively — locks
//     s.mu again; Go mutexes are not reentrant);
//   - lock-order cycles: mutex B acquired while A is held on one path
//     and A acquired while B is held on another, the classic ABBA
//     deadlock;
//   - declared-order violations: a package may pin its nesting order
//     with a `//schedlint:lockorder A < B < C` marker (outermost
//     first); any acquisition edge against that order is an error even
//     before a full cycle exists.
//
// Locks are identified by their declaration — a struct field
// (`Server.mu`) or a package-level var (`appMu`) of type sync.Mutex or
// sync.RWMutex — so two instances of the same struct share an
// identity. That is the right granularity for *ordering* (the
// discipline is per-field, not per-object) and matches the daemons,
// which are singletons; the README documents the approximation.
//
// Held sets are tracked in source order per function: Lock/RLock adds,
// a non-deferred Unlock/RUnlock removes, a deferred Unlock holds to
// function exit. TryLock acquires but never blocks, so it extends the
// held set without creating an acquisition edge. `go` statements are
// spawn points, not calls: held sets do not propagate into goroutines
// (the spawner releases its locks independently of the spawnee).
// Findings can be suppressed with `//lint:lockorder <reason>`.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "interprocedural mutex analysis: self-deadlocks, lock-order cycles, declared-order violations",
	Directive: "lockorder",
	Packages:  analysis.Concurrent,
	Run:       run,
}

// lock is one mutex identity: the checker object of its declaration.
type lock struct {
	obj  *types.Var
	name string // rendered "Type.field" or "pkgvar"
}

// acq is one blocking acquisition inside a function.
type acq struct {
	lk  *lock
	pos token.Pos
}

// transAcq is one entry of a function's may-acquire closure.
type transAcq struct {
	lk  *lock
	pos token.Pos
}

// funcInfo is the per-node summary the fixpoint operates on.
type funcInfo struct {
	node *callgraph.Node
	// acquires: locks this function may block-acquire directly, in
	// source order with a witness position each.
	acquires []transAcq
	// calls: call edges annotated with the held set at the call site.
	calls []callSite
	// direct acquisition events with the held set at that point.
	acqs []acqEvent
	// transAcquires: fixpoint closure of acquires over callees, in
	// deterministic discovery order.
	transAcquires []transAcq
	transSeen     map[*lock]bool
}

type callSite struct {
	edge callgraph.Edge
	held []*lock
}

type acqEvent struct {
	a    acq
	held []*lock
}

func run(pass *analysis.Pass) error {
	locks := collectLocks(pass)
	if len(locks) == 0 {
		return nil
	}
	g := callgraph.Build(pass)
	infos := make(map[*callgraph.Node]*funcInfo, len(g.Nodes))
	for _, n := range g.Nodes {
		infos[n] = summarize(pass, locks, n)
	}
	closeAcquires(g, infos)

	order := declaredOrder(pass, locks)

	// Acquisition edges from→to (to block-acquired while from held),
	// deduplicated per lock pair, kept in discovery order — node slice
	// order × source order — so reports are deterministic.
	var edges []*orderEdge
	seen := make(map[[2]*lock]*orderEdge)
	addEdge := func(from, to *lock, pos token.Pos, via string) {
		k := [2]*lock{from, to}
		if seen[k] != nil {
			return
		}
		e := &orderEdge{from: from, to: to, pos: pos, via: via}
		seen[k] = e
		edges = append(edges, e)
	}

	for _, n := range g.Nodes {
		fi := infos[n]
		for _, ev := range fi.acqs {
			for _, h := range ev.held {
				if h == ev.a.lk {
					pass.Reportf(ev.a.pos, "%s re-acquired while already held in %s; Go mutexes are not reentrant — this deadlocks", h.name, n.Name)
					continue
				}
				addEdge(h, ev.a.lk, ev.a.pos, "")
			}
		}
		for _, cs := range fi.calls {
			callee := infos[cs.edge.Callee]
			if callee == nil {
				continue
			}
			for _, ta := range callee.transAcquires {
				for _, h := range cs.held {
					if h == ta.lk {
						pass.Reportf(cs.edge.Pos, "%s calls %s with %s held, and %s acquires %s again (at %s); Go mutexes are not reentrant — this deadlocks",
							n.Name, cs.edge.Callee.Name, h.name, cs.edge.Callee.Name, ta.lk.name, pass.Fset.Position(ta.pos))
						continue
					}
					addEdge(h, ta.lk, cs.edge.Pos, cs.edge.Callee.Name)
				}
			}
		}
	}

	// Declared-order violations: an edge from→to where the declaration
	// places to strictly before from.
	for _, e := range edges {
		hi, okH := order[e.from]
		bi, okB := order[e.to]
		if okH && okB && bi < hi {
			pass.Reportf(e.pos, "%s acquired while %s held violates the declared lock order (%s)", e.to.name, e.from.name, orderString(order))
		}
	}

	// Cycles: an edge whose target can reach back to its source. Each
	// unordered pair is reported once, at the first witness found.
	reach := reachability(edges)
	reported := make(map[[2]*lock]bool)
	for _, e := range edges {
		if !reach[[2]*lock{e.to, e.from}] {
			continue
		}
		pair := [2]*lock{e.from, e.to}
		if pair[0].name > pair[1].name {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if reported[pair] {
			continue
		}
		reported[pair] = true
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		pass.Reportf(e.pos, "lock-order cycle: %s acquired while %s held here%s, but elsewhere %s is acquired while %s is held — ABBA deadlock",
			e.to.name, e.from.name, via, e.from.name, e.to.name)
	}
	return nil
}

// orderEdge records "to was block-acquired while from was held".
type orderEdge struct {
	from, to *lock
	pos      token.Pos
	via      string // callee name for interprocedural edges
}

// reachability computes the transitive closure over the (tiny) edge
// set: reach[{a,b}] means b is reachable from a.
func reachability(edges []*orderEdge) map[[2]*lock]bool {
	adj := make(map[*lock][]*lock)
	var froms []*lock
	for _, e := range edges {
		if _, ok := adj[e.from]; !ok {
			froms = append(froms, e.from)
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	out := make(map[[2]*lock]bool)
	for _, from := range froms {
		seen := map[*lock]bool{}
		stack := append([]*lock(nil), adj[from]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			out[[2]*lock{from, n}] = true
			stack = append(stack, adj[n]...)
		}
	}
	return out
}

// collectLocks finds every mutex declaration in the package: struct
// fields and package-level vars of type sync.Mutex / sync.RWMutex.
func collectLocks(pass *analysis.Pass) map[*types.Var]*lock {
	out := make(map[*types.Var]*lock)
	add := func(v *types.Var, name string) {
		if v == nil || !isMutex(v.Type()) {
			return
		}
		out[v] = &lock{obj: v, name: name}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec: // package-level vars
					for _, name := range spec.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							add(v, name.Name)
						}
					}
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
								add(v, spec.Name.Name+"."+name.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

func isMutex(t types.Type) bool {
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// lockOpKind classifies a Lock-family method call on a tracked mutex.
type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock            // Lock, RLock: blocking acquisition
	opTry             // TryLock, TryRLock: acquisition, never blocks
	opUnlock
)

// mutexOp resolves a call expression to (lock, kind); opNone when the
// call is not a Lock-family method on a tracked mutex.
func mutexOp(pass *analysis.Pass, locks map[*types.Var]*lock, call *ast.CallExpr) (*lock, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "TryLock", "TryRLock":
		kind = opTry
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return nil, opNone
	}
	lk := resolveLock(pass, locks, sel.X)
	if lk == nil {
		return nil, opNone
	}
	return lk, kind
}

// resolveLock maps a mutex expression (s.mu, appMu) to its identity.
func resolveLock(pass *analysis.Pass, locks map[*types.Var]*lock, expr ast.Expr) *lock {
	switch expr := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[expr].(*types.Var); ok {
			return locks[v]
		}
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[expr]; s != nil && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return locks[v]
			}
		}
		// Qualified package-level var (pkg.Mu) of another package is
		// out of scope; same-package fields resolve above.
	}
	return nil
}

// summarize walks one function in source order, tracking the held set
// and recording acquisition and call events.
func summarize(pass *analysis.Pass, locks map[*types.Var]*lock, n *callgraph.Node) *funcInfo {
	fi := &funcInfo{node: n, transSeen: make(map[*lock]bool)}
	held := []*lock{}
	heldHas := func(lk *lock) bool {
		for _, h := range held {
			if h == lk {
				return true
			}
		}
		return false
	}
	drop := func(lk *lock) {
		for i, h := range held {
			if h == lk {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	// Call edges in source order, annotated with the held set at each
	// position. The callgraph records edges in source order too, so a
	// single merged sweep by position lines the two up.
	edgeAt := make(map[token.Pos]callgraph.Edge, len(n.Calls))
	for _, e := range n.Calls {
		edgeAt[e.Pos] = e
	}
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if n.Lit != x {
				return false // separate node, separate held set
			}
		case *ast.GoStmt:
			// Held sets do not propagate into spawned goroutines.
			deferred[x.Call] = false // walk args normally; the call itself is a spawn
			return true
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			lk, kind := mutexOp(pass, locks, x)
			switch kind {
			case opLock, opTry:
				if kind == opLock {
					if !fi.transSeen[lk] {
						fi.transSeen[lk] = true
						fi.acquires = append(fi.acquires, transAcq{lk: lk, pos: x.Pos()})
					}
					fi.acqs = append(fi.acqs, acqEvent{a: acq{lk: lk, pos: x.Pos()}, held: snapshot(held)})
				}
				if !heldHas(lk) {
					held = append(held, lk)
				}
			case opUnlock:
				if !deferred[x] {
					drop(lk)
				}
			case opNone:
				if e, ok := edgeAt[x.Pos()]; ok && len(held) > 0 {
					fi.calls = append(fi.calls, callSite{edge: e, held: snapshot(held)})
				}
			}
		}
		return true
	})
	return fi
}

func snapshot(held []*lock) []*lock { return append([]*lock(nil), held...) }

// closeAcquires computes each function's transitive may-acquire set
// over the call graph (a fixpoint; the graphs are tiny). infos is
// iterated through the graph's node slice so discovery order — and
// therefore witness positions — is deterministic.
func closeAcquires(g *callgraph.Graph, infos map[*callgraph.Node]*funcInfo) {
	for _, n := range g.Nodes {
		fi := infos[n]
		fi.transAcquires = append(fi.transAcquires, fi.acquires...)
	}
	dataflow.Fixpoint(g, func(n *callgraph.Node) bool {
		fi, changed := infos[n], false
		for _, e := range n.Calls {
			callee := infos[e.Callee]
			if callee == nil {
				continue
			}
			for _, ta := range callee.transAcquires {
				if !fi.transSeen[ta.lk] {
					fi.transSeen[ta.lk] = true
					fi.transAcquires = append(fi.transAcquires, ta)
					changed = true
				}
			}
		}
		return changed
	})
}

// declaredOrder parses the package's `//schedlint:lockorder A < B < C`
// marker into lock → rank (outermost = 0). Unknown names are reported
// by name so a typo cannot silently disable the check.
func declaredOrder(pass *analysis.Pass, locks map[*types.Var]*lock) map[*lock]int {
	markers := analysis.Markers(pass.Files, "lockorder")
	if len(markers) == 0 {
		return nil
	}
	byName := make(map[string]*lock, len(locks))
	for _, lk := range locks {
		byName[lk.name] = lk
	}
	order := make(map[*lock]int)
	for _, m := range markers {
		for i, name := range strings.Split(m.Args, "<") {
			name = strings.TrimSpace(name)
			lk, ok := byName[name]
			if !ok {
				pass.Report(analysis.Diagnostic{
					Pos:            m.Pos,
					Message:        fmt.Sprintf("lockorder marker names unknown mutex %q (known: %s)", name, strings.Join(sortedNames(byName), ", ")),
					Unsuppressable: true,
				})
				continue
			}
			order[lk] = i
		}
	}
	return order
}

func sortedNames(byName map[string]*lock) []string {
	out := make([]string, 0, len(byName))
	for name := range byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func orderString(order map[*lock]int) string {
	type entry struct {
		name string
		rank int
	}
	entries := make([]entry, 0, len(order))
	for lk, rank := range order {
		entries = append(entries, entry{lk.name, rank})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].rank < entries[j].rank })
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return strings.Join(names, " < ")
}
