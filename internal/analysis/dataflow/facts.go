package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// FieldMarker is a `//schedlint:<key>` marker attached to a struct
// field (trailing comment or field doc line).
type FieldMarker struct {
	Field  *types.Var
	Struct string // the enclosing type's name, for messages
	Args   string
	Pos    token.Pos
}

// FieldMarkers returns the struct fields carrying a marker of the
// given key, in file order.
func FieldMarkers(files []*ast.File, info *types.Info, key string) []FieldMarker {
	var out []FieldMarker
	for _, f := range files {
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
					for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
						if cg == nil {
							continue
						}
						for _, c := range cg.List {
							args, ok := analysis.ParseMarker(c, key)
							if !ok {
								continue
							}
							for _, name := range field.Names {
								v, _ := info.Defs[name].(*types.Var)
								if v != nil {
									out = append(out, FieldMarker{Field: v, Struct: ts.Name.Name, Args: args, Pos: c.Pos()})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// ResolveFunc finds the function a field marker names (a channel's
// closing owner): a method of the marked field's struct
// first, then a package-level function.
func ResolveFunc(pkg *types.Package, structName, name string) *types.Func {
	if tn, ok := pkg.Scope().Lookup(structName).(*types.TypeName); ok {
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name)
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	fn, _ := pkg.Scope().Lookup(name).(*types.Func)
	return fn
}

// FieldWrite is one write to a tracked struct field: a plain or
// compound assignment, an element write through the field (s.m[k] = v
// mutates the map held in m), an inc/dec, or a delete() on a
// field-held map.
type FieldWrite struct {
	Field *types.Var
	// Root is the base variable the write reaches through (the `s` in
	// `s.queued = ...`). Analyzers use it to separate writes to a
	// published object (receiver, parameter, captured variable) from
	// initialization of a fresh local that nobody observes yet.
	Root *types.Var
	// Path is the full selector chain, Root first and Field last, so a
	// guard declared on an intermediate field (`stats Stats // guarded
	// by mu`) covers writes to the leaves reached through it.
	Path []*types.Var
	Pos  token.Pos
}

// FieldWritesIn returns the writes to tracked fields within n, in
// source order, without descending into nested function literals
// (each literal is its own call-graph node and is analyzed
// separately).
func FieldWritesIn(info *types.Info, n ast.Node, tracked func(*types.Var) bool) []FieldWrite {
	if n == nil {
		return nil
	}
	var out []FieldWrite
	note := func(e ast.Expr) {
		if v, root, path := writtenField(info, e); v != nil && tracked(v) {
			out = append(out, FieldWrite{Field: v, Root: root, Path: path, Pos: e.Pos()})
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(x.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					note(x.Args[0])
				}
			}
		}
		return true
	})
	return out
}

// writtenField resolves the struct field an assignment target mutates
// — the field itself (s.f = x) or the field whose contents an element
// write reaches through (s.f[k] = x, *s.f = x) — plus the root
// variable of the selector chain.
func writtenField(info *types.Info, e ast.Expr) (field, root *types.Var, path []*types.Var) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			path := SelectorPath(info, x)
			if len(path) < 2 {
				return nil, nil, nil
			}
			if last := path[len(path)-1]; last.IsField() {
				return last, path[0], path
			}
			return nil, nil, nil
		default:
			return nil, nil, nil
		}
	}
}

// SelectorPath resolves a variable or selector chain — p, p.segs,
// s.sched.pool — to the object path it names: the root variable
// followed by the fields selected, unwrapping pointers, parens, and a
// leading address-of. It returns nil for anything whose identity
// cannot be pinned syntactically (calls, indexing, type assertions).
func SelectorPath(info *types.Info, e ast.Expr) []*types.Var {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if s, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(s.X)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return []*types.Var{v}
		}
		if v, ok := info.Defs[x].(*types.Var); ok {
			return []*types.Var{v}
		}
		return nil
	case *ast.SelectorExpr:
		// Package-qualified variable: pkg.V is a root, not a selection.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok {
					return []*types.Var{v}
				}
				return nil
			}
		}
		base := SelectorPath(info, x.X)
		if base == nil {
			return nil
		}
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return append(base, v)
			}
		}
		return nil
	default:
		return nil
	}
}
