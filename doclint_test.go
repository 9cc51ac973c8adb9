package tkcm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// publicPackages are held to the full standard: every exported symbol
// documented. internalPackages only require a package comment (a doc.go or
// a commented main file), keeping intent discoverable via go doc.
var (
	publicPackages   = []string{".", "client"}
	internalPackages = []string{
		"internal/audit", "internal/baseline", "internal/benchcases",
		"internal/cd", "internal/core", "internal/dataset", "internal/dtw",
		"internal/durable",
		"internal/experiments", "internal/fft", "internal/linalg", "internal/muscles",
		"internal/obs", "internal/server", "internal/shard",
		"internal/spirit", "internal/stats", "internal/timeseries", "internal/wal",
		"internal/window", "internal/wire",
	}
)

// TestDocLint is the repo's documentation gate (run by CI as its doc-lint
// step): it fails on any undocumented exported symbol in the public
// packages and on any package — public or internal — without a package
// comment.
func TestDocLint(t *testing.T) {
	for _, dir := range publicPackages {
		for _, problem := range lintPackage(t, dir, true) {
			t.Errorf("%s", problem)
		}
	}
	for _, dir := range internalPackages {
		for _, problem := range lintPackage(t, dir, false) {
			t.Errorf("%s", problem)
		}
	}
}

// lintPackage parses one package directory (tests excluded) and returns its
// documentation violations.
func lintPackage(t *testing.T, dir string, exportedSymbols bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var problems []string
	hasPkgDoc := false
	parsed := 0
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		parsed++
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
		if exportedSymbols {
			problems = append(problems, lintFile(fset, f)...)
		}
	}
	if parsed == 0 {
		t.Fatalf("package %s has no Go files", dir)
	}
	if !hasPkgDoc {
		problems = append(problems, fmt.Sprintf("%s: package has no package comment (add a doc.go)", dir))
	}
	return problems
}

// lintFile reports exported declarations without doc comments.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		problems = append(problems, fmt.Sprintf("%s: exported %s %s is undocumented",
			fset.Position(pos), kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || isExemptMethod(d) {
				continue
			}
			if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			lintGenDecl(d, report)
		}
	}
	return problems
}

// lintGenDecl checks exported types, consts and vars. A doc comment on the
// grouped declaration covers its specs (the standard Go convention for
// const/var blocks); an individual spec comment also counts.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if !sp.Name.IsExported() {
				continue
			}
			if !groupDoc && (sp.Doc == nil || strings.TrimSpace(sp.Doc.Text()) == "") {
				report(sp.Pos(), "type", sp.Name.Name)
			}
			if st, ok := sp.Type.(*ast.StructType); ok && sp.Name.IsExported() {
				lintStructFields(sp.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if !name.IsExported() {
					continue
				}
				documented := groupDoc ||
					(sp.Doc != nil && strings.TrimSpace(sp.Doc.Text()) != "") ||
					(sp.Comment != nil && strings.TrimSpace(sp.Comment.Text()) != "")
				if !documented {
					report(name.Pos(), "value", name.Name)
				}
			}
		}
	}
}

// lintStructFields requires docs on exported fields of exported structs —
// these are API surface exactly like methods.
func lintStructFields(typeName string, st *ast.StructType, report func(token.Pos, string, string)) {
	for _, field := range st.Fields.List {
		documented := (field.Doc != nil && strings.TrimSpace(field.Doc.Text()) != "") ||
			(field.Comment != nil && strings.TrimSpace(field.Comment.Text()) != "")
		for _, name := range field.Names {
			if name.IsExported() && !documented {
				report(name.Pos(), "field", typeName+"."+name.Name)
			}
		}
	}
}

// isExemptMethod skips method names whose meaning is fixed by universal
// interfaces — documenting "Error returns the error string" adds nothing.
func isExemptMethod(d *ast.FuncDecl) bool {
	if d.Recv == nil {
		return false
	}
	switch d.Name.Name {
	case "Error", "String":
		return true
	}
	return false
}
