// Command selfobslint guards the self-observability contract on hot-path
// packages (the per-record ingest and stream loops): a file there may use
// internal/selfobs only through the no-op-able API — Buf/span creation,
// counters — so that when telemetry is disabled the instrumentation costs
// zero allocations and no lock.
//
// Two classes of violation are reported:
//
//  1. calling a selfobs package function outside the hot-path whitelist
//     (e.g. FormatLine, which allocates unconditionally);
//  2. computing a span label at the call site — fmt/strconv/strings calls
//     or string concatenation inside the arguments of a span Begin — which
//     would allocate on every record even with telemetry off. Use a
//     string constant instead.
//
// Usage: selfobslint ./internal/transform ./internal/stream
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const selfobsPath = "github.com/gt-elba/milliscope/internal/selfobs"

// hotPathAllowed is the no-op-able surface: everything here is free when
// telemetry is disabled.
var hotPathAllowed = map[string]bool{
	"NewBuf":     true,
	"Begin":      true,
	"NewCounter": true,
	"Enabled":    true,
}

// labelBuilders are packages whose calls inside span-Begin arguments mean
// a label is being computed per call.
var labelBuilders = map[string]bool{"fmt": true, "strconv": true, "strings": true}

type finding struct {
	pos token.Position
	msg string
}

func lintFile(fset *token.FileSet, f *ast.File) []finding {
	alias := ""
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != selfobsPath {
			continue
		}
		alias = "selfobs"
		if imp.Name != nil {
			alias = imp.Name.Name
		}
	}
	if alias == "" {
		return nil
	}
	var out []finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, finding{fset.Position(n.Pos()), fmt.Sprintf(format, args...)})
	}
	checkArgs := func(call *ast.CallExpr) {
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.BinaryExpr:
					if x.Op == token.ADD {
						report(x, "span label built with + in Begin arguments; use a constant")
					}
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && labelBuilders[id.Name] {
							report(x, "span label built with %s.%s in Begin arguments; use a constant",
								id.Name, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == alias && id.Obj == nil {
			if !hotPathAllowed[sel.Sel.Name] {
				report(call, "%s.%s is not part of the no-op-able hot-path API (allowed: NewBuf, Begin, NewCounter, Enabled)",
					alias, sel.Sel.Name)
			}
		}
		// Span starts — package-level selfobs.Begin or a Buf method — take
		// (pipeline, stage, span, file); their labels must be precomputed.
		if sel.Sel.Name == "Begin" && len(call.Args) == 4 {
			checkArgs(call)
		}
		return true
	})
	return out
}

func run(dirs []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("usage: selfobslint DIR [DIR ...]")
	}
	fset := token.NewFileSet()
	files, bad := 0, 0
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			// Object resolution stays on: a package selector's ident has a
			// nil Obj, which distinguishes selfobs.X from a local variable
			// that happens to share the import's name.
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			for _, fd := range lintFile(fset, f) {
				bad++
				fmt.Printf("%s: %s\n", fd.pos, fd.msg)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d hot-path telemetry violation(s)", bad)
	}
	fmt.Printf("selfobslint: ok (%d files)\n", files)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "selfobslint:", err)
		os.Exit(1)
	}
}
