package milliscope_test

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The internal packages meet at narrow interfaces: a name under internal/
// is exported for the production code of another package (cmd/, the
// milliscope facade or another internal package), or it is not exported.
// Tests, bench/ and examples/ do not make a name part of the surface.

// benchOnly is the reason for the names only the benchmark still calls:
// they go, or gain a production caller, when bench/ moves to the
// production API.
const benchOnly = "only bench/ calls it"

// surfaceAllowlist names the exported names that have no production user
// outside their package, each with the files that do use it ("bench" for
// any file under bench/, "tests" for another package's tests) and why it
// stays exported. The
// test fails on an entry that is no longer needed, so the list only
// shrinks.
var surfaceAllowlist = []struct{ name, usedBy, why string }{
	{"bottleneck.PeriodicDBLogFlush", "bench", benchOnly},
	{"core.BuildEvidence", "bench", benchOnly},
	{"core.CauseKinds", "bench", benchOnly},
	{"mql.Parse", "bench", benchOnly},
	{"mscopedb.ResetScanStats", "bench", benchOnly},
	{"stream.DefaultGrace", "bench", benchOnly},
	{"stream.NewTailer", "bench", benchOnly},
	{"stream.Streamable", "bench", benchOnly},
	{"xmlcsv.NewInference", "bench", benchOnly},
	{"xmlcsv.Row", "bench", benchOnly},
	{"promfmt.Lint", "tests", "the exposition-format oracle every /metrics handler test holds its surface to"},
	{"selfobs.FormatLine", "tests", "renders fixed self-telemetry records, so the selftrace parser's tests read the emitter's own grammar"},
}

// export is one exported top-level name under internal/.
type export struct {
	pos    token.Position
	refs   []string // names of its own package in its signature
	enumOf string   // a constant's declared type in its own package
}

// surface is the exported names under internal/ and, per name, the kinds
// of file outside its package that use it: "prod", "bench" or "tests".
type surface struct {
	exports map[string]*export // "pkg.Name" → declaration
	users   map[string]map[string]bool
}

// TestInternalExportsHaveUsers fails on every exported func, type, var or
// const in a non-test file under internal/ that no non-test file of
// another package uses, except mscopedb/dbtest, the allowlist and the
// names such a user reaches: those in the signature of a used name,
// transitively through exported fields and method signatures, and the
// constants of a type it reaches.
func TestInternalExportsHaveUsers(t *testing.T) {
	s := buildSurface(t, parseModule(t))
	var used []string
	for name, by := range s.users {
		if by["prod"] {
			used = append(used, name)
		}
	}
	allowed := make([]string, len(surfaceAllowlist))
	for i, a := range surfaceAllowlist {
		allowed[i] = a.name
	}

	keep := s.closure(append(allowed, used...))
	var unused []string
	for name := range s.exports {
		if !keep[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: %s is exported, but no other package's production code uses it", s.exports[name].pos, name)
	}
	if len(unused) > 0 {
		t.Errorf("%d unused exports: unexport or delete them", len(unused))
	}

	for i, a := range surfaceAllowlist {
		others := append(append([]string{}, allowed[:i]...), allowed[i+1:]...)
		switch {
		case s.exports[a.name] == nil:
			t.Errorf("allowlist: %s is not an exported name under internal/", a.name)
		case s.closure(append(others, used...))[a.name]:
			t.Errorf("allowlist: %s needs no entry: a production user or a kept signature reaches it", a.name)
		case !s.users[a.name][a.usedBy]:
			t.Errorf("allowlist: %s has no user in %s", a.name, a.usedBy)
		}
	}
}

// closure is the names the roots reach through signatures, with the
// constants of every type reached.
func (s *surface) closure(roots []string) map[string]bool {
	keep := map[string]bool{}
	var visit func(string)
	visit = func(name string) {
		e := s.exports[name]
		if e == nil || keep[name] {
			return
		}
		keep[name] = true
		pkg, _, _ := strings.Cut(name, ".")
		for _, r := range e.refs {
			visit(pkg + "." + r)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for name, e := range s.exports {
		if pkg, _, _ := strings.Cut(name, "."); e.enumOf != "" && keep[pkg+"."+e.enumOf] {
			keep[name] = true
		}
	}
	return keep
}

func buildSurface(t *testing.T, m *module) *surface {
	t.Helper()
	modPath := modulePath(t)
	pkgOf := map[string]string{} // directory → package name
	for p, f := range m.files {
		if !strings.HasSuffix(p, "_test.go") {
			pkgOf[path.Dir(p)] = f.Name.Name
		}
	}
	s := &surface{exports: map[string]*export{}, users: map[string]map[string]bool{}}
	methods := map[string][]string{} // "pkg.Type" → names in its exported methods' signatures
	for p, f := range m.files {
		dir := path.Dir(p)
		if strings.HasSuffix(p, "_test.go") || !strings.HasPrefix(dir, "internal/") || dir == "internal/mscopedb/dbtest" {
			continue
		}
		s.addExports(m.fset, f, methods)
	}
	for typ, refs := range methods {
		if e := s.exports[typ]; e != nil {
			e.refs = append(e.refs, refs...)
		}
	}

	for p, f := range m.files {
		kind := "prod"
		switch {
		case strings.HasPrefix(p, "examples/"):
			continue
		case strings.HasPrefix(p, "bench/"):
			kind = "bench"
		case strings.HasSuffix(p, "_test.go"):
			kind = "tests"
		}
		local := map[string]string{} // import name → package name
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ip, modPath+"/")
			if !ok || !strings.HasPrefix(dir, "internal/") || dir == path.Dir(p) {
				continue
			}
			name := pkgOf[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = pkgOf[dir]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
				name := local[x.Name] + "." + sel.Sel.Name
				if s.users[name] == nil {
					s.users[name] = map[string]bool{}
				}
				s.users[name][kind] = true
			}
			return true
		})
	}
	return s
}

func (s *surface) addExports(fset *token.FileSet, f *ast.File, methods map[string][]string) {
	pkg := f.Name.Name + "."
	add := func(id *ast.Ident, refs []string, enumOf string) {
		if id.IsExported() {
			s.exports[pkg+id.Name] = &export{pos: fset.Position(id.Pos()), refs: refs, enumOf: enumOf}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, typeRefs(d.Type), "")
			} else if d.Name.IsExported() {
				typ := pkg + typeName(d.Recv.List[0].Type)
				methods[typ] = append(methods[typ], typeRefs(d.Type)...)
			}
		case *ast.GenDecl:
			enumOf := "" // an iota group repeats the type of the spec before
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					refs := typeRefs(sp.Type)
					if sp.TypeParams != nil {
						refs = append(refs, typeRefs(sp.TypeParams)...)
					}
					add(sp.Name, refs, "")
				case *ast.ValueSpec:
					var refs []string
					if sp.Type != nil {
						refs = typeRefs(sp.Type)
					} else if len(sp.Values) == 1 { // var X = T{…} or &T{…}
						v := sp.Values[0]
						if u, ok := v.(*ast.UnaryExpr); ok {
							v = u.X
						}
						if lit, ok := v.(*ast.CompositeLit); ok && lit.Type != nil {
							refs = typeRefs(lit.Type)
						}
					}
					if d.Tok == token.CONST {
						if id, ok := sp.Type.(*ast.Ident); ok {
							enumOf = id.Name
						} else if sp.Type != nil || len(sp.Values) > 0 {
							enumOf = ""
						}
					}
					for _, n := range sp.Names {
						add(n, refs, enumOf)
					}
				}
			}
		}
	}
}

// typeRefs lists the unqualified identifiers of a type expression, leaving
// out names qualified by another package, parameter names and unexported
// fields and methods.
func typeRefs(n ast.Node) []string {
	var refs []string
	var walk func(ast.Node)
	exported := func(fields *ast.FieldList) {
		for _, f := range fields.List {
			if len(f.Names) == 0 || f.Names[0].IsExported() {
				walk(f.Type)
			}
		}
	}
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				refs = append(refs, x.Name)
			case *ast.Field: // a parameter or result
				walk(x.Type)
				return false
			case *ast.StructType:
				exported(x.Fields)
				return false
			case *ast.InterfaceType:
				exported(x.Methods)
				return false
			}
			return true
		})
	}
	walk(n)
	return refs
}

func modulePath(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(p)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}
