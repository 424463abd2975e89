package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed `//lint:<name> <reason>` comment.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Pos
	File   string
	// From/To is the inclusive line range the directive covers in its
	// file: its own line and the next (so a directive above a statement
	// works), widened to the whole function when the directive sits on
	// or directly above a function declaration.
	From, To int
}

const directivePrefix = "//lint:"

// parseDirective extracts a directive from one comment, if present.
func parseDirective(c *ast.Comment) (name, reason string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, reason, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(reason), name != ""
}

// Directives returns every lint directive in the files, with covered
// line ranges resolved.
func Directives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		// Function spans, for widening declaration-level directives.
		type span struct{ start, end int }
		var funcs []span
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start := fset.Position(fd.Pos()).Line
			if fd.Doc != nil {
				start = fset.Position(fd.Doc.Pos()).Line
			}
			funcs = append(funcs, span{start, fset.Position(fd.End()).Line})
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := Directive{Name: name, Reason: reason, Pos: c.Pos(), File: pos.Filename, From: pos.Line, To: pos.Line + 1}
				for _, fn := range funcs {
					// The directive is part of the declaration header or
					// its doc comment: cover the whole function.
					if pos.Line >= fn.start && pos.Line <= fn.end {
						hdr := pos.Line <= fn.start+1
						if hdr || directiveIsDocLine(fset, f, pos.Line, fn.start) {
							d.To = fn.end
						}
						break
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// directiveIsDocLine reports whether line belongs to the doc-comment /
// signature prefix of a function starting (incl. doc) at fnStart.
func directiveIsDocLine(fset *token.FileSet, f *ast.File, line, fnStart int) bool {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		if fset.Position(fd.Doc.Pos()).Line <= line && line <= fset.Position(fd.Body.Pos()).Line {
			return true
		}
	}
	return false
}

// Marker is one parsed `//schedlint:<key> <args>` comment. Unlike the
// `//lint:` directives above — which *suppress* findings — markers
// *declare* facts the interprocedural analyzers check against: a
// dispatch switch's role (`schedlint:dispatch server.mom`) or a
// package's lock acquisition order (`schedlint:lockorder Server.mu <
// Conn.wm`).
type Marker struct {
	Key  string
	Args string
	Pos  token.Pos
}

const markerPrefix = "//schedlint:"

// ParseMarker extracts the arguments of a marker of the given key from
// one comment. The marker may trail other commentary on the same line —
// field annotations compose with guard comments, as in
// `// guarded by mu //schedlint:chan-owner Close` — and anything
// after an embedded `//` is commentary too (fixture `// want`
// expectations ride on marker lines), not arguments.
func ParseMarker(c *ast.Comment, key string) (args string, ok bool) {
	i := strings.Index(c.Text, markerPrefix)
	if i < 0 {
		return "", false
	}
	k, rest, _ := strings.Cut(c.Text[i+len(markerPrefix):], " ")
	if k != key {
		return "", false
	}
	rest, _, _ = strings.Cut(rest, "//")
	return strings.TrimSpace(rest), true
}

// Markers returns every `//schedlint:<key>` marker of the given key in
// the files, in file/position order.
func Markers(files []*ast.File, key string) []Marker {
	var out []Marker
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if args, ok := ParseMarker(c, key); ok {
					out = append(out, Marker{Key: key, Args: args, Pos: c.Pos()})
				}
			}
		}
	}
	return out
}

// Suppressor answers "is a finding at this position silenced?".
type Suppressor struct {
	byFile map[string][]Directive
}

// NewSuppressor indexes the directives of a package's files.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{byFile: make(map[string][]Directive)}
	for _, d := range Directives(fset, files) {
		s.byFile[d.File] = append(s.byFile[d.File], d)
	}
	return s
}

// Suppressed reports whether a directive of the given name covers pos.
// Directives with an empty reason are ignored: an exception must say
// why it is sound.
func (s *Suppressor) Suppressed(name string, pos token.Position) bool {
	for _, d := range s.byFile[pos.Filename] {
		if d.Name == name && d.Reason != "" && d.From <= pos.Line && pos.Line <= d.To {
			return true
		}
	}
	return false
}
