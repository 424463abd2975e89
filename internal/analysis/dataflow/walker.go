// Package dataflow is the shared dataflow substrate of schedlint's
// lifetime analyzer, chanlife. It layers three facilities over the
// package call graph (internal/analysis/callgraph):
//
//   - a path-sensitive statement walker (Walk) that threads an
//     analyzer-defined abstract state through a function body, forking
//     at branches and joining the per-path states at merge points, so a
//     fact established on one arm of an if/switch does not leak into
//     the other;
//   - field marker attachment (FieldMarkers) resolving
//     `//schedlint:<key>` comments to the *types.Var they annotate,
//     and the function a field marker names (ResolveFunc);
//   - def/use helpers (FieldWritesIn, SelectorPath) that map syntax to
//     the checker's objects: which annotated struct fields a statement
//     writes, and the object path of a selector chain.
//
// The walker is an abstract interpreter, not a CFG builder: soundness
// comes from joining every path that can reach a program point and
// from bounded re-execution of loop bodies (a loop body is run through
// the transfer function until the joined state stops changing, capped
// at a small constant — the analyzers' lattices are tiny bit-sets that
// stabilize in one or two passes). Deferred calls are replayed, last
// registered first, at every exit before the Return hook so `defer
// close(ch)` counts exactly like a trailing close. `go` statements
// never execute through the walker: a spawned literal is its own
// call-graph node with its own obligations.
package dataflow

import "go/ast"

// State is an analyzer-defined abstract state threaded through Walk.
// Implementations are mutable: the walker clones at forks and joins in
// place at merges.
type State interface {
	// Clone returns an independent deep copy.
	Clone() State
	// Join folds another path's state into the receiver (set union /
	// "may" semantics for the lifetime analyzers).
	Join(other State)
	// Equal reports whether two states carry the same facts; it bounds
	// the loop-body fixpoint.
	Equal(other State) bool
}

// Hooks receives the walker's events.
type Hooks struct {
	// Transfer applies one atomic node: a simple statement (assignment,
	// expression statement, inc/dec, send, declaration, ...) or a
	// branch condition expression. Analyzers inspect the node's
	// sub-expressions themselves (skipping nested *ast.FuncLit — each
	// literal is its own call-graph node).
	Transfer func(st State, n ast.Node)
	// Defer replays one deferred call at function exit, last registered
	// first, before Return runs. Optional.
	Defer func(st State, call *ast.CallExpr)
	// Return observes one function exit after deferred calls have been
	// replayed. ret is nil when control falls off the end of the body.
	// Optional.
	Return func(st State, ret *ast.ReturnStmt)
}

// loopPasses bounds the loop-body fixpoint. The lifetime lattices are
// monotone bit-sets; two passes propagate any loop-carried fact and
// the Equal check exits earlier when the body is state-neutral.
const loopPasses = 4

// Walk interprets body starting from init. The walker owns init and
// mutates it; callers keep a Clone if they need the entry state later.
func Walk(body *ast.BlockStmt, init State, h Hooks) {
	w := &walker{hooks: h}
	out := w.block(body, init)
	// Falling off the end of the body is an implicit return.
	w.exit(out, nil)
}

// walker carries the loop/label context of one Walk.
type walker struct {
	hooks Hooks
	// deferred holds the registered deferred calls in source order;
	// exits replay them in reverse.
	deferred []*ast.CallExpr
	loops    []*loopCtx
}

// loopCtx collects the states of break/continue statements targeting
// one enclosing loop (or switch/select, which absorb plain breaks).
type loopCtx struct {
	label     string
	isLoop    bool // continue targets loops only
	breaks    []State
	continues []State
}

// exit finalizes one path: replay defers (LIFO), then Return.
func (w *walker) exit(st State, ret *ast.ReturnStmt) {
	if st == nil {
		return
	}
	for i := len(w.deferred) - 1; i >= 0; i-- {
		if w.hooks.Defer != nil {
			w.hooks.Defer(st, w.deferred[i])
		}
	}
	if w.hooks.Return != nil {
		w.hooks.Return(st, ret)
	}
}

// transfer feeds one atomic node to the analyzer. nil nodes (absent
// init/cond clauses) are skipped.
func (w *walker) transfer(st State, n ast.Node) {
	if st == nil || n == nil {
		return
	}
	if w.hooks.Transfer != nil {
		w.hooks.Transfer(st, n)
	}
}

// join folds b into a, handling dead (nil) paths.
func join(a, b State) State {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		a.Join(b)
		return a
	}
}

// block interprets a statement list; a nil result marks a dead path
// (every sub-path returned, panicked, or jumped away).
func (w *walker) block(b *ast.BlockStmt, st State) State {
	if b == nil {
		return st
	}
	return w.stmts(b.List, st)
}

func (w *walker) stmts(list []ast.Stmt, st State) State {
	for _, s := range list {
		if st == nil {
			return nil
		}
		st = w.stmt(s, st)
	}
	return st
}

// stmt interprets one statement and returns the fall-through state
// (nil when control cannot reach the next statement).
func (w *walker) stmt(s ast.Stmt, st State) State {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s, st)

	case *ast.ReturnStmt:
		w.transfer(st, s)
		w.exit(st, s)
		return nil

	case *ast.DeferStmt:
		// Arguments are evaluated at registration; the call itself runs
		// at exit (replayed by exit()). Feed only the argument and
		// receiver expressions through Transfer so an analyzer does not
		// mistake registration for execution.
		for _, arg := range s.Call.Args {
			w.transfer(st, arg)
		}
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
			w.transfer(st, sel.X)
		}
		w.deferred = append(w.deferred, s.Call)
		return st

	case *ast.GoStmt:
		// The spawned function is a separate node; only the argument
		// and receiver evaluation happens here.
		for _, arg := range s.Call.Args {
			w.transfer(st, arg)
		}
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
			w.transfer(st, sel.X)
		}
		return st

	case *ast.IfStmt:
		w.transfer(st, s.Init)
		w.transfer(st, s.Cond)
		thenIn := st.Clone()
		var elseOut State
		if s.Else != nil {
			elseOut = w.stmt(s.Else, st)
		} else {
			elseOut = st
		}
		thenOut := w.block(s.Body, thenIn)
		return join(thenOut, elseOut)

	case *ast.SwitchStmt:
		w.transfer(st, s.Init)
		w.transfer(st, s.Tag)
		return w.switchBody(s.Body, st, switchHasDefault(s.Body))

	case *ast.TypeSwitchStmt:
		w.transfer(st, s.Init)
		w.transfer(st, s.Assign)
		return w.switchBody(s.Body, st, switchHasDefault(s.Body))

	case *ast.SelectStmt:
		ctx := &loopCtx{} // select absorbs plain break
		w.loops = append(w.loops, ctx)
		var out State
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			in := st.Clone()
			w.transfer(in, cc.Comm)
			out = join(out, w.stmts(cc.Body, in))
		}
		w.loops = w.loops[:len(w.loops)-1]
		for _, b := range ctx.breaks {
			out = join(out, b)
		}
		if len(s.Body.List) == 0 {
			return nil // select{} blocks forever
		}
		return out

	case *ast.ForStmt:
		w.transfer(st, s.Init)
		return w.loop(st, "", func(in State) State {
			w.transfer(in, s.Cond)
			out := w.block(s.Body, in)
			if out != nil {
				w.transfer(out, s.Post)
			}
			return out
		}, s.Cond == nil)

	case *ast.RangeStmt:
		w.transfer(st, s.X)
		return w.loop(st, "", func(in State) State {
			// Key/value are fed individually: handing Transfer the whole
			// RangeStmt would let an ast.Inspect descend into the body,
			// which the walker interprets itself.
			w.transfer(in, s.Key)
			w.transfer(in, s.Value)
			return w.block(s.Body, in)
		}, false)

	case *ast.LabeledStmt:
		return w.labeled(s, st)

	case *ast.BranchStmt:
		return w.branch(s, st)

	default:
		// Atomic statements: assign, expr, incdec, send, decl, empty.
		w.transfer(st, s)
		return st
	}
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// switchBody joins the per-case outputs; without a default the input
// state falls through untouched. Fallthrough feeds a case's output
// into the next case's input.
func (w *walker) switchBody(body *ast.BlockStmt, st State, hasDefault bool) State {
	ctx := &loopCtx{} // switch absorbs plain break
	w.loops = append(w.loops, ctx)
	var out State
	var fall State
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		in := st.Clone()
		for _, e := range cc.List {
			w.transfer(in, e)
		}
		in = join(in, fall)
		fall = nil
		caseOut := w.stmts(cc.Body, in)
		if caseOut != nil && endsInFallthrough(cc.Body) {
			fall = caseOut
			continue
		}
		out = join(out, caseOut)
	}
	out = join(out, fall)
	w.loops = w.loops[:len(w.loops)-1]
	for _, b := range ctx.breaks {
		out = join(out, b)
	}
	if !hasDefault {
		out = join(out, st)
	}
	return out
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// loop runs body() to a bounded fixpoint. infinite marks `for {}`
// loops, whose only exits are breaks (and returns inside the body).
func (w *walker) loop(st State, label string, body func(State) State, infinite bool) State {
	ctx := &loopCtx{label: label, isLoop: true}
	w.loops = append(w.loops, ctx)
	head := st
	var exit State
	if !infinite {
		exit = st.Clone() // zero iterations
	}
	for i := 0; i < loopPasses; i++ {
		prev := head.Clone()
		out := body(head.Clone())
		for _, c := range ctx.continues {
			out = join(out, c)
		}
		ctx.continues = nil
		if out != nil && !infinite {
			exit = join(exit, out.Clone())
		}
		head = join(head, out)
		if head == nil || head.Equal(prev) {
			break
		}
	}
	w.loops = w.loops[:len(w.loops)-1]
	for _, b := range ctx.breaks {
		exit = join(exit, b)
	}
	return exit
}

func (w *walker) labeled(s *ast.LabeledStmt, st State) State {
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		w.transfer(st, inner.Init)
		return w.loop(st, s.Label.Name, func(in State) State {
			w.transfer(in, inner.Cond)
			out := w.block(inner.Body, in)
			if out != nil {
				w.transfer(out, inner.Post)
			}
			return out
		}, inner.Cond == nil)
	case *ast.RangeStmt:
		w.transfer(st, inner.X)
		return w.loop(st, s.Label.Name, func(in State) State {
			w.transfer(in, inner.Key)
			w.transfer(in, inner.Value)
			return w.block(inner.Body, in)
		}, false)
	default:
		return w.stmt(s.Stmt, st)
	}
}

// branch routes break/continue states to their target context. goto is
// treated as a dead end (the repo bans goto by convention; a lost path
// under-approximates, it never fabricates a finding).
func (w *walker) branch(s *ast.BranchStmt, st State) State {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(w.loops) - 1; i >= 0; i-- {
			c := w.loops[i]
			if label == "" || c.label == label {
				c.breaks = append(c.breaks, st)
				return nil
			}
		}
	case "continue":
		for i := len(w.loops) - 1; i >= 0; i-- {
			c := w.loops[i]
			if c.isLoop && (label == "" || c.label == label) {
				c.continues = append(c.continues, st)
				return nil
			}
		}
	case "fallthrough":
		// Handled by switchBody; reaching here means a malformed tree.
		return st
	}
	return nil
}
