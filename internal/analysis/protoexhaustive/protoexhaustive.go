// Package protoexhaustive keeps the wire protocol's message registry
// and the daemons' dispatch switches in lockstep. A message type that
// is registered but never dispatched is dead protocol surface; a
// dispatch case for an unregistered tag is a message nobody sends; a
// registered tag missing from its daemon's switch is the classic
// "added the message, forgot the handler" bug that only surfaces as a
// live-system timeout.
//
// The contract has two halves:
//
//   - Every MsgType constant in internal/proto declares which dispatch
//     switches consume it, via a `dispatch:<role>[,<role>]` token in
//     its trailing comment. Replies that are read inline (request /
//     response on one connection) use the pseudo-role `reply`.
//   - Every `switch` over a MsgType in a daemon package is declared
//     with a `schedlint:dispatch <role>` marker on the line above,
//     and must handle exactly the tags registered for that role: each
//     registered tag appears as a case, and each case tag is
//     registered for the role.
//
// The analyzer reads the proto package's syntax through Pass.Dep, so
// it checks daemons against the registry they actually compile
// against — there is no second copy of the message list to drift.
package protoexhaustive

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the protoexhaustive check.
var Analyzer = &analysis.Analyzer{
	Name:      "protoexhaustive",
	Doc:       "proto message registry and daemon dispatch switches must agree: every registered tag handled, every handled tag registered",
	Directive: "protodispatch",
	Run:       run,
}

// msgTypeName is the tag type the protocol hangs off.
const msgTypeName = "MsgType"

// registryEntry is one registered message type.
type registryEntry struct {
	name  string   // constant name, e.g. "TQSub"
	value string   // wire value, e.g. "qsub"
	roles []string // dispatch roles from the annotation
	pos   token.Pos
}

func run(pass *analysis.Pass) error {
	// Half one: inside the proto package itself, check that every
	// MsgType constant carries a dispatch annotation.
	if definesMsgType(pass.Pkg) {
		entries := collectRegistry(&analysis.Target{
			Fset: pass.Fset, Files: pass.Files, Pkg: pass.Pkg, TypesInfo: pass.TypesInfo,
		})
		for _, e := range entries {
			if len(e.roles) == 0 {
				pass.Reportf(e.pos, "message type %s has no dispatch:<role> annotation; declare which dispatch switch consumes it (or dispatch:reply for inline responses)", e.name)
			}
		}
	}

	// Half two: every switch over a MsgType value, wherever it lives,
	// must be declared and exhaustive for its role.
	markers := analysis.Markers(pass.Files, "dispatch")
	markerAt := make(map[string]*analysis.Marker, len(markers))
	used := make(map[*analysis.Marker]bool, len(markers))
	for i := range markers {
		m := &markers[i]
		pos := pass.Fset.Position(m.Pos)
		markerAt[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = m
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			sw, ok := x.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := msgTypeOf(pass, sw.Tag)
			if named == nil {
				return true
			}
			pos := pass.Fset.Position(sw.Pos())
			m := markerAt[fmt.Sprintf("%s:%d", pos.Filename, pos.Line-1)]
			if m == nil {
				pass.Reportf(sw.Pos(), "switch over %s.%s without a //schedlint:dispatch <role> marker; declare which dispatch role this switch implements", named.Obj().Pkg().Name(), msgTypeName)
				return true
			}
			used[m] = true
			role := strings.TrimSpace(m.Args)
			if role == "" {
				pass.Report(analysis.Diagnostic{Pos: sw.Pos(), Message: "//schedlint:dispatch marker is missing its role argument", Unsuppressable: true})
				return true
			}
			checkSwitch(pass, sw, named, role)
			return true
		})
	}
	for i := range markers {
		m := &markers[i]
		if !used[m] {
			pass.Report(analysis.Diagnostic{
				Pos:            m.Pos,
				Message:        fmt.Sprintf("//schedlint:dispatch %s marker is not attached to a MsgType switch on the next line", strings.TrimSpace(m.Args)),
				Unsuppressable: true,
			})
		}
	}
	return nil
}

// checkSwitch compares one declared dispatch switch against the
// registry of the MsgType's defining package.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt, named *types.Named, role string) {
	dep := depTarget(pass, named)
	if dep == nil {
		pass.Reportf(sw.Pos(), "cannot load the registry package %s for dispatch role %q (driver provides no dependency sources)", named.Obj().Pkg().Path(), role)
		return
	}
	entries := collectRegistry(dep)
	registered := make(map[string]*registryEntry, len(entries)) // wire value -> entry
	var forRole []*registryEntry
	for _, e := range entries {
		registered[e.value] = e
		for _, r := range e.roles {
			if r == role {
				forRole = append(forRole, e)
				break
			}
		}
	}
	if len(forRole) == 0 {
		pass.Reportf(sw.Pos(), "no message types are registered for dispatch role %q; annotate the constants in %s or fix the role name", role, named.Obj().Pkg().Path())
		return
	}

	handled := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			val, ok := constString(pass, expr)
			if !ok {
				pass.Reportf(expr.Pos(), "dispatch case is not a constant MsgType; exhaustiveness cannot be checked")
				continue
			}
			handled[val] = true
			e := registered[val]
			if e == nil {
				pass.Reportf(expr.Pos(), "case %q is not a registered message type in %s", val, named.Obj().Pkg().Path())
				continue
			}
			if !hasRole(e, role) {
				pass.Reportf(expr.Pos(), "case %s is not registered for dispatch role %q (its annotation says dispatch:%s)", e.name, role, strings.Join(e.roles, ","))
			}
		}
	}
	var missing []string
	for _, e := range forRole {
		if !handled[e.value] {
			missing = append(missing, e.name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		pass.Reportf(sw.Pos(), "dispatch switch for role %q does not handle %s; every tag registered for the role needs a case", role, name)
	}
}

// collectRegistry reads MsgType constants and their dispatch
// annotations out of a package's syntax.
func collectRegistry(t *analysis.Target) []*registryEntry {
	var out []*registryEntry
	for _, f := range t.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, ok := t.TypesInfo.Defs[name].(*types.Const)
					if !ok || !isMsgType(c.Type()) || c.Val().Kind() != constant.String {
						continue
					}
					out = append(out, &registryEntry{
						name:  name.Name,
						value: constant.StringVal(c.Val()),
						roles: parseRoles(vs.Comment),
						pos:   name.Pos(),
					})
				}
			}
		}
	}
	return out
}

// parseRoles extracts `dispatch:a,b` from a trailing comment.
func parseRoles(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		for _, field := range strings.Fields(strings.TrimPrefix(c.Text, "//")) {
			if rest, ok := strings.CutPrefix(field, "dispatch:"); ok {
				var roles []string
				for _, r := range strings.Split(rest, ",") {
					if r = strings.TrimSpace(r); r != "" {
						roles = append(roles, r)
					}
				}
				return roles
			}
		}
	}
	return nil
}

func hasRole(e *registryEntry, role string) bool {
	for _, r := range e.roles {
		if r == role {
			return true
		}
	}
	return false
}

// msgTypeOf returns the tag expression's named MsgType, or nil.
func msgTypeOf(pass *analysis.Pass, expr ast.Expr) *types.Named {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != msgTypeName || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

func isMsgType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == msgTypeName
}

func definesMsgType(pkg *types.Package) bool {
	obj := pkg.Scope().Lookup(msgTypeName)
	_, ok := obj.(*types.TypeName)
	return ok
}

// depTarget resolves the registry package: the analyzed package itself
// when the switch lives next to the constants, Pass.Dep otherwise.
func depTarget(pass *analysis.Pass, named *types.Named) *analysis.Target {
	path := named.Obj().Pkg().Path()
	if path == pass.Pkg.Path() {
		return &analysis.Target{Fset: pass.Fset, Files: pass.Files, Pkg: pass.Pkg, TypesInfo: pass.TypesInfo}
	}
	if pass.Dep == nil {
		return nil
	}
	return pass.Dep(path)
}

// constString evaluates a case expression to its wire value.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
