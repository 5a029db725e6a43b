// Command apicheck extracts the exported API surface of package noftl (the
// module root) as one sorted line per exported declaration, and optionally
// enforces the facade rule that no exported function or method returns a
// pointer into an internal/ package.
//
// A type alias of a struct in another package of the module (SpaceOptions =
// core.Options) has its exported fields listed under the alias's name, so a
// field removed there shows up too.  It works on the AST alone (no type
// checking), so it can be pointed at any checked-out tree:
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
	"sort"
	"strconv"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "directory of the package to inspect (the module root)")
	internal := flag.Bool("internal", false, "fail when an exported func/method returns a pointer into internal/")
	flag.Parse()

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, *dir, notTest, parser.ParseComments)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	pkg, ok := pkgs["noftl"]
	if !ok {
		fmt.Fprintf(os.Stderr, "apicheck: package noftl not found in %s\n", *dir)
		os.Exit(1)
	}

	var lines []string
	var violations []string
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
				if *internal {
					if bad := internalPtrResult(fset, d.Type, imports); bad != "" {
						violations = append(violations, fmt.Sprintf("%s: func %s%s returns %s (pointer into internal/)",
							filepath.Base(name), recv, d.Name.Name, bad))
					}
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
							lines = append(lines, fields(fset, s.Name.Name, t)...)
						case *ast.SelectorExpr:
							if st := aliasedStruct(fset, *dir, imports, t); st != nil {
								lines = append(lines, fields(fset, s.Name.Name, st)...)
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
								kw := "var"
								if d.Tok == token.CONST {
									kw = "const"
								}
								lines = append(lines, kw+" "+vn.Name)
							}
						}
					}
				}
			}
		}
	}

	if *internal {
		if len(violations) > 0 {
			sort.Strings(violations)
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, v)
			}
			os.Exit(1)
		}
		return
	}
	sort.Strings(lines)
	prev := ""
	for _, l := range lines {
		if l != prev {
			fmt.Println(l)
		}
		prev = l
	}
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

// fields lists the exported fields of struct type st, declared as name.
func fields(fset *token.FileSet, name string, st *ast.StructType) []string {
	var out []string
	for _, f := range st.Fields.List {
		for _, fn := range f.Names {
			if fn.IsExported() {
				out = append(out, "field "+name+"."+fn.Name+" "+typeString(fset, f.Type))
			}
		}
	}
	return out
}

// aliasedStruct returns the struct type pkg.T names when pkg is a package of
// the module under root, and nil otherwise.
func aliasedStruct(fset *token.FileSet, root string, imports map[string]string, sel *ast.SelectorExpr) *ast.StructType {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	rel, ok := strings.CutPrefix(imports[id.Name], "noftl/")
	if !ok {
		return nil
	}
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, rel), notTest, 0)
	if err != nil {
		return nil
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if obj := file.Scope.Lookup(sel.Sel.Name); obj != nil && obj.Kind == ast.Typ {
				if st, ok := obj.Decl.(*ast.TypeSpec).Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
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

// signature renders the parameter and result lists of a function type.
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	var b strings.Builder
	b.WriteString("(")
	if ft.Params != nil {
		for i, f := range ft.Params.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(typeString(fset, f.Type))
			if n := len(f.Names); n > 1 {
				for j := 1; j < n; j++ {
					b.WriteString(", " + typeString(fset, f.Type))
				}
			}
		}
	}
	b.WriteString(")")
	if ft.Results != nil && len(ft.Results.List) > 0 {
		b.WriteString(" (")
		for i, f := range ft.Results.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(typeString(fset, f.Type))
		}
		b.WriteString(")")
	}
	return b.String()
}

// typeKind names the declaration form of a type spec.
func typeKind(s *ast.TypeSpec) string {
	prefix := ""
	if s.Assign != token.NoPos {
		prefix = "= "
	}
	switch s.Type.(type) {
	case *ast.StructType:
		return prefix + "struct"
	case *ast.InterfaceType:
		return prefix + "interface"
	default:
		return prefix + "decl"
	}
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
		for {
			switch t := expr.(type) {
			case *ast.ArrayType:
				expr = t.Elt
				continue
			case *ast.StarExpr:
				if sel, ok := t.X.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						if path, ok := imports[id.Name]; ok && strings.Contains(path, "internal/") {
							return typeString(fset, f.Type)
						}
					}
				}
			}
			break
		}
	}
	return ""
}
