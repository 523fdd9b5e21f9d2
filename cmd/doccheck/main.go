// Command doccheck reports exported identifiers that lack doc comments and
// command packages whose documentation does not cover their flags.
//
//	go run ./cmd/doccheck ./internal/core ./internal/engine ./cmd/augmentd
//
// Each argument is a package directory; non-test .go files are parsed with
// go/parser (no type checking, no external tooling) and every exported
// top-level declaration — funcs, methods on exported receivers, types, and
// exported const/var specs — must carry a doc comment on the declaration or
// the spec. Packages named main are additionally held to the command
// contract: the package must carry a doc comment, and every flag the package
// registers through the flag package (flag.String, flag.Bool, flag.Int,
// flag.Int64, flag.Float64, flag.Duration) must be mentioned in that comment
// as -name, so `go doc ./cmd/<tool>` is a complete usage reference. Findings
// print as file:line: name, and the exit status is 1 when anything is
// missing, so `make doc-check` can gate on it. doccheck takes no flags of
// its own.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir> [<package-dir> ...]")
		os.Exit(2)
	}
	var findings []string
	for _, dir := range os.Args[1:] {
		f, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d documentation findings\n", len(findings))
		os.Exit(1)
	}
}

// checkDir parses every non-test .go file in dir and returns one finding per
// undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				checkDecl(decl, report)
			}
		}
		if pkg.Name == "main" {
			checkCommandDoc(pkg, report)
		}
	}
	return findings, nil
}

// flagConstructors are the flag-package registration funcs whose first
// argument is the flag name.
var flagConstructors = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Float64": true, "Duration": true,
}

// checkCommandDoc enforces the command contract on a main package: a package
// doc comment must exist and mention every registered flag as -name.
func checkCommandDoc(pkg *ast.Package, report func(token.Pos, string)) {
	names := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	var doc strings.Builder
	for _, name := range names {
		if d := pkg.Files[name].Doc; d != nil {
			doc.WriteString(d.Text())
		}
	}
	if doc.Len() == 0 {
		report(pkg.Files[names[0]].Package, "package "+pkg.Name+" (no package doc comment on a command)")
		return
	}
	text := doc.String()
	for _, name := range names {
		ast.Inspect(pkg.Files[name], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagConstructors[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			flagName, err := strconv.Unquote(lit.Value)
			if err != nil || flagName == "" {
				return true
			}
			if !mentionsFlag(text, flagName) {
				report(lit.Pos(), "-"+flagName+" (flag not mentioned in the package doc comment)")
			}
			return true
		})
	}
}

// mentionsFlag reports whether doc contains -name as a standalone token
// (so -workers is not satisfied by a mention of -selftest-workers).
func mentionsFlag(doc, name string) bool {
	needle := "-" + name
	for i := 0; ; {
		j := strings.Index(doc[i:], needle)
		if j < 0 {
			return false
		}
		j += i
		before := byte(' ')
		if j > 0 {
			before = doc[j-1]
		}
		after := byte(' ')
		if k := j + len(needle); k < len(doc) {
			after = doc[k]
		}
		if !isFlagWordByte(before) && !isFlagWordByte(after) && after != '-' && before != '-' {
			return true
		}
		i = j + 1
	}
}

// isFlagWordByte reports whether b could extend a flag name.
func isFlagWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// checkDecl reports the undocumented exported names a top-level declaration
// introduces.
func checkDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		name := d.Name.Name
		if recv := receiverType(d); recv != "" {
			if !ast.IsExported(recv) {
				return // method on an unexported type: not in godoc
			}
			name = recv + "." + name
		}
		report(d.Pos(), name)
	case *ast.GenDecl:
		// A doc comment on the grouped decl covers single-spec groups; specs
		// inside a multi-spec block each need their own (or the block's).
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && sp.Doc == nil && d.Doc == nil {
					report(sp.Pos(), sp.Name.Name)
				}
			case *ast.ValueSpec:
				covered := sp.Doc != nil || sp.Comment != nil ||
					(d.Doc != nil && len(d.Specs) == 1) ||
					(d.Doc != nil && d.Lparen.IsValid())
				if covered {
					continue
				}
				for _, n := range sp.Names {
					if n.IsExported() {
						report(n.Pos(), n.Name)
					}
				}
			}
		}
	}
}

// receiverType returns the bare receiver type name of a method, or "".
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
