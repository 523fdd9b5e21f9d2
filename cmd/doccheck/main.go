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
// contract, in both directions: the package must carry a doc comment, every
// flag the package registers (String, Bool, Int, Int64, Float64, Duration
// and their Var forms, on the flag package or a FlagSet) must be mentioned in
// that comment with its dash, and every dashed name the comment mentions
// must be a registered flag, so `go doc ./cmd/<tool>` is a complete and
// current usage reference. Every registered flag must also have a user that
// sets it for that command: it has to appear, with its dash, in a Makefile
// recipe that runs the command (./cmd/<name>, or a binary built from it), in
// a file under bench/ (for the two commands the benchmark builds, augmentd
// and experiments), or in a row of API.md's knob census that names the
// command (all read relative to the working directory, the repository root
// under `make doc-check`), so a knob nothing sets cannot come back
// unnoticed; and every flag a census row names for a command must be one the
// command registers, so the row of a deleted flag cannot linger. Findings
// print as file:line: name, and the exit status is 1
// when anything is missing, so `make doc-check` can gate on it. doccheck
// takes no flags of its own.
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
	users, census, err := flagUsers(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	var findings []string
	for _, dir := range os.Args[1:] {
		command := filepath.Base(dir)
		f, err := checkDir(dir, users[command], census[command])
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
// undocumented exported identifier and, for a command, per breach of the
// command contract. users is the set of flag names something sets for the
// command in dir, and census the flags API.md's knob census names for it,
// each with its line in API.md.
func checkDir(dir string, users map[string]bool, census map[string]int) ([]string, error) {
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
		if pkg.Name != "main" {
			continue
		}
		registered := checkCommandDoc(pkg, users, report)
		if registered == nil {
			continue // no package doc, already reported
		}
		for name, line := range census {
			if !registered[name] {
				findings = append(findings, fmt.Sprintf("API.md:%d: -%s (knob census row names a flag the command does not register)", line, name))
			}
		}
	}
	return findings, nil
}

// flagConstructors are the registration funcs of the flag package and of
// flag.FlagSet whose first argument is the flag name; each has a Var form
// that takes the name second.
var flagConstructors = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Float64": true, "Duration": true,
}

// registeredFlag returns the flag name a call expression registers, if it is
// a flag registration: a constructor (or its Var form) called on any value
// with a string-literal name followed by a default and a usage string.
func registeredFlag(call *ast.CallExpr) (*ast.BasicLit, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	nameArg := 0
	ctor := sel.Sel.Name
	if strings.HasSuffix(ctor, "Var") {
		ctor, nameArg = strings.TrimSuffix(ctor, "Var"), 1
	}
	if !flagConstructors[ctor] || len(call.Args) != nameArg+3 {
		return nil, ""
	}
	lit, ok := call.Args[nameArg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil, ""
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || name == "" {
		return nil, ""
	}
	return lit, name
}

// checkCommandDoc enforces the command contract on a main package: a package
// doc comment must exist, it and the registered flags must name each other,
// and every registered flag must have a user. It returns the registered
// flags (nil when the doc comment is missing and nothing was checked).
func checkCommandDoc(pkg *ast.Package, users map[string]bool, report func(token.Pos, string)) map[string]bool {
	names := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	var doc strings.Builder
	var docPos token.Pos
	for _, name := range names {
		if d := pkg.Files[name].Doc; d != nil {
			doc.WriteString(d.Text())
			docPos = d.Pos()
		}
	}
	if doc.Len() == 0 {
		report(pkg.Files[names[0]].Package, "package "+pkg.Name+" (no package doc comment on a command)")
		return nil
	}
	mentioned := flagMentions(doc.String())
	registered := make(map[string]bool)
	for _, name := range names {
		ast.Inspect(pkg.Files[name], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, flagName := registeredFlag(call)
			if lit == nil {
				return true
			}
			registered[flagName] = true
			if !mentioned[flagName] {
				report(lit.Pos(), "-"+flagName+" (flag not mentioned in the package doc comment)")
			}
			if !users[flagName] {
				report(lit.Pos(), "-"+flagName+" (flag set by no Makefile recipe, no file under bench/, and no row of API.md's knob census for this command)")
			}
			return true
		})
	}
	for flagName := range mentioned {
		if !registered[flagName] {
			report(docPos, "-"+flagName+" (package doc comment names a flag the command does not register)")
		}
	}
	return registered
}

// flagMentions returns the set of names that text mentions as -name: a dash
// that starts a token (nothing that could extend a flag name before it),
// followed by a lower-case letter and then letters, digits and inner dashes —
// so -dir is not mentioned by -wal-dir.
func flagMentions(text string) map[string]bool {
	out := make(map[string]bool)
	for i := 0; i < len(text); i++ {
		if text[i] != '-' || (i > 0 && (isFlagWordByte(text[i-1]) || text[i-1] == '-')) {
			continue
		}
		j := i + 1
		for j < len(text) && (isFlagWordByte(text[j]) || (text[j] == '-' && j+1 < len(text) && isFlagWordByte(text[j+1]))) {
			j++
		}
		if j > i+1 && text[i+1] >= 'a' && text[i+1] <= 'z' {
			out[text[i+1:j]] = true
		}
		i = j
	}
	return out
}

// benchCommands are the commands the benchmark harness builds and drives
// (bench/main.go's buildBinaries): a flag a file under bench/ mentions counts
// as set for each of them.
var benchCommands = []string{"augmentd", "experiments"}

// flagUsers collects, per command, every flag name something in the
// repository at root sets for that command: the dashed names in a Makefile
// recipe line (continuations joined) that runs ./cmd/<name> or a binary
// built from it with -o, in every file under bench/ (for benchCommands), and
// in the Flag column of API.md's knob census (the table rows between the
// "## Knob census" heading and the next heading). A census row names its
// command with a leading word ("`dessim -rate`"); unprefixed rows count for
// augmentd in the first table and for no command after it. The census flags
// are also returned on their own, per command, each with its API.md line.
func flagUsers(root string) (users map[string]map[string]bool, census map[string]map[string]int, err error) {
	users, census = make(map[string]map[string]bool), make(map[string]map[string]int)
	add := func(command, text string) {
		if users[command] == nil {
			users[command] = make(map[string]bool)
		}
		for name := range flagMentions(text) {
			users[command][name] = true
		}
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, nil, err
	}
	var recipes []string
	continued := false
	for _, line := range strings.Split(string(makefile), "\n") {
		switch {
		case continued:
			recipes[len(recipes)-1] += " " + line
		case strings.HasPrefix(line, "\t"):
			recipes = append(recipes, line)
		default:
			continue
		}
		continued = strings.HasSuffix(line, "\\")
	}
	built := make(map[string]string) // "./<binary>" → the command it was built from
	for _, recipe := range recipes {
		f := strings.Fields(recipe)
		for i := 0; i+2 < len(f); i++ {
			if f[i] == "-o" && strings.HasPrefix(f[i+2], "./cmd/") {
				built["./"+f[i+1]] = strings.TrimPrefix(f[i+2], "./cmd/")
			}
		}
	}
	for _, recipe := range recipes {
		for _, field := range strings.Fields(recipe) {
			command, ok := strings.CutPrefix(field, "./cmd/")
			if !ok {
				command, ok = built[field]
			}
			if ok {
				add(command, recipe)
				break
			}
		}
	}
	var bench strings.Builder
	err = filepath.WalkDir(filepath.Join(root, "bench"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		bench.Write(append(raw, '\n'))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, command := range benchCommands {
		add(command, bench.String())
	}
	api, err := os.ReadFile(filepath.Join(root, "API.md"))
	if err != nil {
		return nil, nil, err
	}
	head, rows, ok := strings.Cut(string(api), "\n## Knob census\n")
	if !ok {
		return nil, nil, fmt.Errorf("API.md has no \"## Knob census\" section")
	}
	unprefixed, inTable := "augmentd", false
	first := strings.Count(head, "\n") + 3 // API.md line of the census's first line
	for i, line := range strings.Split(rows, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) <= 2 || cells[0] != "" {
			if inTable {
				unprefixed = ""
			}
			continue
		}
		inTable = true
		command := unprefixed
		if f := strings.Fields(strings.Trim(strings.TrimSpace(cells[1]), "`")); len(f) > 1 && !strings.HasPrefix(f[0], "-") {
			command = f[0]
		}
		if command == "" {
			continue
		}
		add(command, cells[1])
		if census[command] == nil {
			census[command] = make(map[string]int)
		}
		for name := range flagMentions(cells[1]) {
			census[command][name] = first + i
		}
	}
	return users, census, nil
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
