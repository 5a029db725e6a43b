// Command apicheck extracts the exported API surface of package noftl (the
// module root) as one sorted line per exported declaration, and optionally
// enforces the facade rule that no exported function or method returns a
// pointer into an internal/ package.
//
// A type alias of a struct in another package of the module (SpaceOptions =
// core.Options) has its exported fields listed under the alias's name, and a
// struct the fields its embedded structs promote, so a field removed there
// shows up too.  It works on the AST alone (no type checking), so it can be
// pointed at any checked-out tree:
//
//	go run ./ci/apicheck -dir .                # print the API surface
//	go run ./ci/apicheck -dir . -internal      # fail on internal pointers
//
// ci/apidiff.sh diffs the output of two commits and fails on removals that
// are not listed in ci/API_allowlist.txt, turning accidental breaking
// changes into CI failures while keeping intended ones reviewable.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "directory of the package to inspect (the module root)")
	internal := flag.Bool("internal", false, "fail when an exported func/method returns a pointer into internal/")
	flag.Parse()

	lines, violations, err := surface(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	if !*internal {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// surface returns the API surface of package noftl in dir, one sorted line
// per exported declaration, and the exported functions and methods that
// return a pointer into internal/.
func surface(dir string) (lines, violations []string, err error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	pkg, ok := pkgs["noftl"]
	if !ok {
		return nil, nil, fmt.Errorf("package noftl not found in %s", dir)
	}
	for name, file := range pkg.Files {
		imports := importMap(file)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					rt := typeString(fset, d.Recv.List[0].Type)
					if !exportedReceiver(rt) {
						continue
					}
					recv = "(" + rt + ") "
				}
				lines = append(lines, "func "+recv+d.Name.Name+signature(fset, d.Type))
				if bad := internalPtrResult(fset, d.Type, imports); bad != "" {
					violations = append(violations, fmt.Sprintf("%s: func %s%s returns %s (pointer into internal/)",
						filepath.Base(name), recv, d.Name.Name, bad))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						kind := typeKind(s)
						lines = append(lines, "type "+s.Name.Name+" "+kind)
						// Exported struct fields and interface methods are
						// API too.
						switch t := s.Type.(type) {
						case *ast.StructType:
							lines = append(lines, fields(fset, dir, dir, imports, s.Name.Name, t)...)
						case *ast.SelectorExpr:
							if st, sdir, simports := structType(fset, dir, dir, imports, t); st != nil {
								lines = append(lines, fields(fset, dir, sdir, simports, s.Name.Name, st)...)
							}
						case *ast.InterfaceType:
							for _, m := range t.Methods.List {
								for _, mn := range m.Names {
									if mn.IsExported() {
										lines = append(lines,
											"method "+s.Name.Name+"."+mn.Name+signature(fset, m.Type.(*ast.FuncType)))
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, vn := range s.Names {
							if vn.IsExported() {
								lines = append(lines, d.Tok.String()+" "+vn.Name) // const or var
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(violations)
	sort.Strings(lines)
	return slices.Compact(lines), violations, nil
}

// importMap returns local package name -> import path for a file.
func importMap(file *ast.File) map[string]string {
	out := make(map[string]string)
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

// notTest keeps the non-test Go files of a directory.
func notTest(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// fields lists the exported fields of struct type st, declared as name in
// the package at dir by a file importing imports, those its embedded structs
// promote included: a field that leaves core.Counts leaves RegionStats too.
func fields(fset *token.FileSet, root, dir string, imports map[string]string, name string, st *ast.StructType) []string {
	var out []string
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 { // embedded
			if est, edir, eimports := structType(fset, root, dir, imports, f.Type); est != nil {
				out = append(out, fields(fset, root, edir, eimports, name, est)...)
			}
		}
		for _, fn := range f.Names {
			if fn.IsExported() {
				out = append(out, "field "+name+"."+fn.Name+" "+typeString(fset, f.Type))
			}
		}
	}
	return out
}

// structType returns the struct that expr (T, *T or pkg.T, written like st
// in fields) names in the module under root, through any aliases, with the
// directory and imports of the file declaring it; nil if it names none.
func structType(fset *token.FileSet, root, dir string, imports map[string]string, expr ast.Expr) (*ast.StructType, string, map[string]string) {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	var name string
	switch e := expr.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		id, ok := e.X.(*ast.Ident)
		if !ok {
			return nil, "", nil
		}
		rel, ok := strings.CutPrefix(imports[id.Name], "noftl/")
		if !ok {
			return nil, "", nil
		}
		name, dir = e.Sel.Name, filepath.Join(root, rel)
	default:
		return nil, "", nil
	}
	pkgs, err := parser.ParseDir(fset, dir, notTest, 0)
	if err != nil {
		return nil, "", nil
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if obj := file.Scope.Lookup(name); obj != nil && obj.Kind == ast.Typ {
				switch t := obj.Decl.(*ast.TypeSpec).Type.(type) {
				case *ast.StructType:
					return t, dir, importMap(file)
				case *ast.Ident, *ast.SelectorExpr:
					return structType(fset, root, dir, importMap(file), t)
				}
			}
		}
	}
	return nil, "", nil
}

// exportedReceiver reports whether a receiver type string names an exported
// type ("*DB" -> DB).
func exportedReceiver(rt string) bool {
	rt = strings.TrimPrefix(rt, "*")
	if i := strings.Index(rt, "["); i >= 0 { // generic receiver
		rt = rt[:i]
	}
	return rt != "" && ast.IsExported(rt)
}

// signature renders the parameter and result lists of a function type, one
// type per name: (a, b int) is (int, int).
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	types := func(fl *ast.FieldList) string {
		var ts []string
		for _, f := range fl.List {
			for range max(len(f.Names), 1) {
				ts = append(ts, typeString(fset, f.Type))
			}
		}
		return strings.Join(ts, ", ")
	}
	sig := "(" + types(ft.Params) + ")"
	if ft.Results != nil && len(ft.Results.List) > 0 {
		sig += " (" + types(ft.Results) + ")"
	}
	return sig
}

// typeKind names the declaration form of a type spec.
func typeKind(s *ast.TypeSpec) string {
	kind := "decl"
	switch s.Type.(type) {
	case *ast.StructType:
		kind = "struct"
	case *ast.InterfaceType:
		kind = "interface"
	}
	if s.Assign != token.NoPos {
		return "= " + kind
	}
	return kind
}

// typeString prints a type expression as source text.
func typeString(fset *token.FileSet, expr ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, fset, expr)
	return b.String()
}

// internalPtrResult returns the printed form of the first result type that
// is a pointer (possibly behind slices/arrays) into an internal/ package.
func internalPtrResult(fset *token.FileSet, ft *ast.FuncType, imports map[string]string) string {
	if ft.Results == nil {
		return ""
	}
	for _, f := range ft.Results.List {
		expr := f.Type
		for arr, ok := expr.(*ast.ArrayType); ok; arr, ok = expr.(*ast.ArrayType) {
			expr = arr.Elt
		}
		if star, ok := expr.(*ast.StarExpr); ok {
			if sel, ok := star.X.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && strings.Contains(imports[id.Name], "internal/") {
					return typeString(fset, f.Type)
				}
			}
		}
	}
	return ""
}
