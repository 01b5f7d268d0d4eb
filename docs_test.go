package milliscope_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The documents hold the code to what they say about it: every name they
// quote in backticks exists, every flag they quote is defined, and every
// design-section reference, in the documents and in the code, names a
// section DESIGN.md has.

var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// pkgDecls are one package's top-level names and, per type, its methods,
// fields and embedded types (whose members it promotes).
type pkgDecls struct {
	names    map[string]bool
	members  map[string]map[string]bool
	embedded map[string][]string
}

func (p *pkgDecls) hasMember(typ, member string, depth int) bool {
	if p.members[typ][member] {
		return true
	}
	for _, e := range p.embedded[typ] {
		if depth < 4 && p.hasMember(e, member, depth+1) {
			return true
		}
	}
	return false
}

// module parses every Go file of the module once: the declarations of each
// library package's non-test files (package main has none a document can
// name), the flag names defined under cmd/ and bench/, and every comment.
// It keeps every file's syntax tree for the internal surface check.
type module struct {
	pkgs     map[string]*pkgDecls
	flags    map[string]bool
	comments map[string][]string // file → comment texts
	fset     *token.FileSet
	files    map[string]*ast.File // slash-separated path → syntax tree
}

var flagDefs = map[string]int{ // flag-defining method → index of its name argument
	"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Bool": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"BoolVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

var (
	moduleOnce   sync.Once
	parsedModule *module
	parseErr     error
)

// parseModule returns the module, parsed on the first call.
func parseModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { parsedModule, parseErr = walkModule() })
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return parsedModule
}

func walkModule() (*module, error) {
	fset := token.NewFileSet()
	m := &module{pkgs: map[string]*pkgDecls{}, flags: map[string]bool{}, comments: map[string][]string{},
		fset: fset, files: map[string]*ast.File{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			m.comments[path] = append(m.comments[path], g.Text())
		}
		m.files[filepath.ToSlash(path)] = f
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if top := strings.Split(filepath.ToSlash(path), "/")[0]; top == "cmd" || top == "bench" {
			m.addFlags(f)
		}
		if f.Name.Name != "main" {
			m.addDecls(f)
		}
		return nil
	})
	return m, err
}

func (m *module) addDecls(f *ast.File) {
	p := m.pkgs[f.Name.Name]
	if p == nil {
		p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]string{}}
		m.pkgs[f.Name.Name] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					var fields []*ast.Field
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields.List
					case *ast.InterfaceType:
						fields = tt.Methods.List
					}
					for _, fl := range fields {
						if len(fl.Names) == 0 {
							p.embedded[s.Name.Name] = append(p.embedded[s.Name.Name], typeName(fl.Type))
						}
						for _, n := range fl.Names {
							member(s.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the bare name of a receiver or embedded type: T from T,
// *T, T[K] or pkg.T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func (m *module) addFlags(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		i, ok := flagDefs[sel.Sel.Name]
		if !ok || len(call.Args) <= i {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				m.flags[name] = true
			}
		}
		return true
	})
}

var (
	fence    = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	qualRef  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	flagRef  = regexp.MustCompile(`(?:^|\s)--([a-z][a-z0-9-]*)`)
)

// codeSpans returns a document's inline code spans, fenced blocks left out.
func codeSpans(t *testing.T, doc string) []string {
	t.Helper()
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(string(b), ""), -1) {
		out = append(out, strings.Join(strings.Fields(m[1]), " "))
	}
	return out
}

// TestDocsMatchTheCode parses the module once and runs the three checks.
func TestDocsMatchTheCode(t *testing.T) {
	m := parseModule(t)
	t.Run("names", func(t *testing.T) { checkNames(t, m) })
	t.Run("flags", func(t *testing.T) { checkFlags(t, m) })
	t.Run("sections", func(t *testing.T) { checkSections(t, m) })
}

// checkNames: every `pkg.Name` or `pkg.Type.Member` a document quotes,
// where pkg is a package of this module, is declared in that package's
// non-test files.
func checkNames(t *testing.T, m *module) {
	checked := 0
	for _, doc := range docFiles {
		for _, span := range codeSpans(t, doc) {
			ref := qualRef.FindStringSubmatch(span)
			if ref == nil || m.pkgs[ref[1]] == nil {
				continue
			}
			checked++
			p, name, member := m.pkgs[ref[1]], ref[2], ref[3]
			switch {
			case !p.names[name]:
				t.Errorf("%s: `%s`: package %s declares no %s", doc, span, ref[1], name)
			case member != "" && !p.hasMember(name, member, 0):
				t.Errorf("%s: `%s`: %s.%s has no method or field %s", doc, span, ref[1], name, member)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no qualified names found in the documents")
	}
}

// checkFlags: every --flag a document quotes is defined by a flag set
// under cmd/ or bench/.
func checkFlags(t *testing.T, m *module) {
	if len(m.flags) == 0 {
		t.Fatal("no flag definitions found under cmd/ or bench/")
	}
	for _, doc := range docFiles {
		for _, span := range codeSpans(t, doc) {
			for _, f := range flagRef.FindAllStringSubmatch(span, -1) {
				if !m.flags[f[1]] {
					t.Errorf("%s: `%s`: no flag --%s is defined under cmd/ or bench/", doc, span, f[1])
				}
			}
		}
	}
}

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designRef     = regexp.MustCompile(`DESIGN\.md ((?:§§?\d+(?:[–-]\d+)?(?:,? (?:and |or )?|[–-])?)+)`)
	sectionNum    = regexp.MustCompile(`§§?(\d+)(?:[–-](\d+))?`)
)

// checkSections: every "DESIGN.md §N" in the documents, in Go comments and
// in the build recipe of .claude/skills, and every bare §N inside
// DESIGN.md, names a "## N." heading of DESIGN.md.
func checkSections(t *testing.T, m *module) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, h := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[h[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	check := func(where, text string, bare bool) {
		var refs []string
		if bare {
			refs = []string{text}
		} else {
			for _, r := range designRef.FindAllStringSubmatch(text, -1) {
				refs = append(refs, r[1])
			}
		}
		for _, r := range refs {
			for _, n := range sectionNum.FindAllStringSubmatch(r, -1) {
				for _, num := range n[1:] {
					if num != "" && !sections[num] {
						t.Errorf("%s: §%s names no section of DESIGN.md", where, num)
					}
				}
			}
		}
	}
	check("DESIGN.md", fence.ReplaceAllString(string(design), ""), true)
	for _, doc := range append([]string{".claude/skills/verify/SKILL.md"}, docFiles...) {
		b, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(b), false)
	}
	files := make([]string, 0, len(m.comments))
	for f := range m.comments {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		check(f, strings.Join(m.comments[f], "\n"), false)
	}
}
