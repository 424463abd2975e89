// Package sharedguard finds unguarded cross-goroutine writes: a
// struct field written from two or more distinct goroutine contexts of
// the same package must carry a declared synchronization protocol —
// a lockcheck `// guarded by mu` annotation, atomicity (a sync/atomic
// wrapper type or a `//schedlint:atomic` plain field enforced by
// atomicfield), or an audited confinement declaration
// `//schedlint:confined <goroutine> <why>` for handoff protocols the
// type system cannot see (phased ownership, Vyukov-style sequence
// publication, index-disjoint worker writes).
//
// Goroutine contexts are computed from the package call graph's Spawn
// records:
//
//   - the *main* context seeds every exported declaration and every
//     declaration nothing in the package calls or spawns (it may be
//     invoked synchronously from outside);
//   - every `go f(...)` whose callee resolves in-package starts a
//     context named after the spawned function;
//   - a function literal that is neither spawned nor called — stored
//     in a field, sent down a channel, passed as a callback — is its
//     own context: the analyzer cannot tell which goroutine will run
//     it, so it must assume a distinct one.
//
// Contexts then propagate along synchronous call edges: a helper
// called from both the monitor goroutine and an RPC handler executes
// in both contexts, and its writes count for both.
//
// A finding additionally requires at least one of the writing
// contexts to be a real `go` spawn. A package with no spawns among
// the writers — the discrete-event simulator's stored callbacks all
// run on the single simulation goroutine — has no second goroutine
// this analyzer can prove, and flagging every escaped callback would
// drown the real races. Escaped-literal contexts still count toward
// the total (and are named in the message) once a spawn is present.
//
// Constructor writes to provably fresh locals are exempt — state that
// has not been published cannot race; this is the "handed off before
// the spawn" rule: build the object, then spawn.
//
// Writes whose root is a function parameter (receiver included, and
// type-switch/assertion bindings of one) are charged not to the
// contexts running the writer but to the contexts a shared object can
// arrive from, computed by a fixpoint over call-site arguments: fresh
// locals contribute nothing, handed-through parameters chain, and
// everything else contributes the caller's contexts (see paramFlow).
// Without this, a decoder writing message fields through its `dst any`
// parameter would be charged with every goroutine that ever decodes —
// even though each hands it a stack-local destination.
//
// What sharedguard proves is deliberately bounded (see DESIGN.md
// "Memory-model invariants"): it reasons about one package's spawn
// structure, counts writes only (a lone writer racing readers is
// lockcheck/atomicfield territory), and trusts the declared
// annotations rather than re-deriving the Go memory model. Findings
// can be suppressed with `//lint:shared <reason>`.
package sharedguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the sharedguard check. The Concurrent packages are the
// live daemons and their substrate, plus the packages whose lock-free
// structures carry the scale work (campaign's claim index, core's epoch
// counters, proto's pooled conn state).
var Analyzer = &analysis.Analyzer{
	Name:      "sharedguard",
	Doc:       "fields written from two or more goroutine contexts must declare a guard: a `// guarded by mu` mutex, atomicity, or //schedlint:confined",
	Directive: "shared",
	Tests:     true,
	Packages:  analysis.Concurrent,
	Run:       run,
}

// fieldInfo is what the sweep knows about one declared struct field.
type fieldInfo struct {
	v        *types.Var
	owner    string // enclosing type name, for messages
	guarded  bool   // `// guarded by <mu>` annotation
	atomic   bool   // sync/atomic type or schedlint:atomic marker
	confined bool   // //schedlint:confined <goroutine> declaration
}

func run(pass *analysis.Pass) error {
	fields := collectFields(pass)
	if len(fields) == 0 {
		return nil
	}

	g := callgraph.Build(pass)
	origins, seeds, names, isSpawn := spawnOrigins(pass, g)
	pf := newParamFlow(pass, g, seeds, origins)

	// One witness write per (field, origin), so the report can show
	// where each context touches the field.
	type key struct {
		f      *types.Var
		origin int
	}
	witness := map[key]token.Pos{}
	fieldOrigins := map[*types.Var]map[int]bool{}
	for _, n := range g.Nodes {
		ctxs := origins[n]
		if len(ctxs) == 0 {
			continue
		}
		writes := dataflow.FieldWritesIn(pass.TypesInfo, n.Body(), func(v *types.Var) bool {
			_, ok := fields[v]
			return ok
		})
		for _, w := range writes {
			if dataflow.FreshLocal(pass.Files, pass.TypesInfo, pass.Pkg, w.Root) {
				continue
			}
			// A guard or confinement declared on an intermediate field
			// covers every leaf written through it (`p.stats.Severed++`
			// under the guard declared on stats).
			covered := false
			for _, pv := range w.Path[1:max(len(w.Path)-1, 1)] {
				if fi := fields[pv]; fi != nil && (fi.guarded || fi.confined) {
					covered = true
				}
			}
			if covered {
				continue
			}
			// A parameter-rooted write mutates whatever the callers
			// passed: charge it to the contexts a shared object can
			// arrive from, not to every context running the code.
			wctxs := ctxs
			if p := pf.resolve(n, w.Root); p != nil {
				wctxs = pf.ctxs[p]
			}
			fo := fieldOrigins[w.Field]
			if fo == nil {
				fo = map[int]bool{}
				fieldOrigins[w.Field] = fo
			}
			for o := range wctxs {
				fo[o] = true
				if _, ok := witness[key{w.Field, o}]; !ok {
					witness[key{w.Field, o}] = w.Pos
				}
			}
		}
	}

	for v, fo := range fieldOrigins {
		if len(fo) < 2 {
			continue
		}
		// No writer on a spawned goroutine means no provable second
		// goroutine: escaped callbacks alone never fire.
		spawnWriter := false
		for o := range fo {
			if isSpawn[o] {
				spawnWriter = true
				break
			}
		}
		if !spawnWriter {
			continue
		}
		fi := fields[v]
		if fi.guarded || fi.atomic || fi.confined {
			continue
		}
		// Render the contexts deterministically, with one witness each.
		var os []int
		for o := range fo {
			os = append(os, o)
		}
		sort.Ints(os)
		var parts []string
		for _, o := range os {
			p := pass.Fset.Position(witness[key{v, o}])
			parts = append(parts, fmt.Sprintf("%s at %s:%d", names[o], filepath.Base(p.Filename), p.Line))
		}
		pass.Reportf(v.Pos(), "field %s.%s is written from %d goroutine contexts (%s) with no declared guard; annotate `// guarded by <mu>`, make it atomic (//schedlint:atomic or a sync/atomic type), or declare //schedlint:confined <goroutine> <why>",
			fi.owner, v.Name(), len(fo), strings.Join(parts, "; "))
	}
	return nil
}

// collectFields indexes every struct field declared in the package
// with its guard declarations.
func collectFields(pass *analysis.Pass) map[*types.Var]*fieldInfo {
	out := map[*types.Var]*fieldInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					guarded := analysis.GuardedBy(field) != ""
					for _, name := range field.Names {
						v, ok := pass.TypesInfo.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						out[v] = &fieldInfo{
							v:       v,
							owner:   ts.Name.Name,
							guarded: guarded,
							atomic:  atomicfield.IsAtomicType(v.Type()),
						}
					}
				}
			}
		}
	}
	for _, fm := range dataflow.FieldMarkers(pass.Files, pass.TypesInfo, atomicfield.MarkerKey) {
		if fi := out[fm.Field]; fi != nil {
			fi.atomic = true
		}
	}
	for _, fm := range dataflow.FieldMarkers(pass.Files, pass.TypesInfo, "confined") {
		fi := out[fm.Field]
		if fi == nil {
			continue
		}
		if fm.Args == "" {
			pass.Report(analysis.Diagnostic{Pos: fm.Pos, Unsuppressable: true,
				Message: fmt.Sprintf("malformed confined marker on %s: want `confined <goroutine> <why>`", fm.Field.Name())})
			continue
		}
		fi.confined = true
	}
	return out
}

// spawnOrigins computes, per call-graph node, the set of goroutine
// contexts that may execute it, as indices into the returned name
// table; isSpawn marks the contexts started by an actual go
// statement. seeds is the pre-propagation snapshot — the node each
// context *starts* at — which the parameter flow uses to decide what
// arrives from outside the synchronous call structure.
func spawnOrigins(pass *analysis.Pass, g *callgraph.Graph) (origins, seeds map[*callgraph.Node]map[int]bool, names []string, isSpawn []bool) {
	names = []string{"the main context"}
	isSpawn = []bool{false}
	origins = make(map[*callgraph.Node]map[int]bool, len(g.Nodes))
	add := func(n *callgraph.Node, o int) bool {
		s := origins[n]
		if s == nil {
			s = map[int]bool{}
			origins[n] = s
		}
		if s[o] {
			return false
		}
		s[o] = true
		return true
	}

	spawned := map[*callgraph.Node]bool{}
	for _, n := range g.Nodes {
		for _, sp := range n.Spawns {
			if sp.Callee != nil {
				spawned[sp.Callee] = true
			}
		}
	}
	callers := dataflow.SyncCallers(g)

	// Seeds.
	for _, n := range g.Nodes {
		if spawned[n] {
			id := len(names)
			names = append(names, "go "+n.Name)
			isSpawn = append(isSpawn, true)
			add(n, id)
		}
		switch {
		case n.Decl != nil:
			// Exported declarations are callable from outside the
			// package on the caller's goroutine; so, conservatively, are
			// unexported ones nothing here calls or spawns (interface
			// methods, functions passed by value).
			if n.Decl.Name.IsExported() || (callers[n] == 0 && !spawned[n]) {
				add(n, 0)
			}
		case n.Lit != nil:
			// A literal that is never spawned and never called escapes
			// as a value; the analyzer must assume it runs on its own
			// goroutine.
			if !spawned[n] && callers[n] == 0 {
				id := len(names)
				names = append(names, "escaped "+n.Name)
				isSpawn = append(isSpawn, false)
				add(n, id)
			}
		}
	}

	// Snapshot the seeds before propagation.
	seeds = make(map[*callgraph.Node]map[int]bool, len(origins))
	for n, s := range origins {
		c := make(map[int]bool, len(s))
		for o := range s {
			c[o] = true
		}
		seeds[n] = c
	}

	// Propagate along synchronous edges to a fixpoint.
	dataflow.Fixpoint(g, func(n *callgraph.Node) bool {
		changed := false
		for _, e := range n.Calls {
			for o := range origins[n] {
				if add(e.Callee, o) {
					changed = true
				}
			}
		}
		return changed
	})
	return origins, seeds, names, isSpawn
}
