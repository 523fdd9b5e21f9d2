package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCommandContract runs the linter over a fixture command that breaks
// each rule of the command contract once.
func TestCommandContract(t *testing.T) {
	dir := t.TempDir()
	src := `// Command fixture takes -kept and -stale; see make smoke-fixture.
package main

import "flag"

func main() {
	fs := flag.NewFlagSet("fixture", flag.ExitOnError)
	var unused int
	fs.String("kept", "", "documented and set by a recipe")
	fs.IntVar(&unused, "unused", 0, "documented nowhere, set by nothing")
	flag.Bool("undocumented", false, "set by a recipe, missing from the doc")
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checkDir(dir, map[string]bool{"kept": true, "undocumented": true})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(findings, "\n")
	for _, want := range []string{
		"-unused (flag not mentioned in the package doc comment)",
		"-unused (flag set by no Makefile recipe",
		"-undocumented (flag not mentioned in the package doc comment)",
		"-stale (package doc comment names a flag the command does not register)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing finding %q in:\n%s", want, got)
		}
	}
	if len(findings) != 4 {
		t.Errorf("want 4 findings (none for -kept or smoke-fixture), got:\n%s", got)
	}
}

// TestFlagUsersReadsTheRepository pins the three sources against the real
// tree: a recipe-only flag, a bench-only flag and a census-only flag all
// count as used by their command, and a removed flag does not.
func TestFlagUsersReadsTheRepository(t *testing.T) {
	users, err := flagUsers(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, used := range [][2]string{
		{"augmentd", "chaos-mtbf"}, {"augmentd", "snapshot-every"}, {"augmentd", "probe-every"},
		{"experiments", "trials"}, {"dessim", "order"}, {"sfcaugment", "fallback"},
	} {
		if !users[used[0]][used[1]] {
			t.Errorf("%s -%s has a user but flagUsers does not see it", used[0], used[1])
		}
	}
	for command, flags := range users {
		for _, name := range []string{"restore", "reaug-budget", "fail-soft", "ilp-budget"} {
			if flags[name] {
				t.Errorf("%s -%s is gone but flagUsers still counts a user", command, name)
			}
		}
	}
	if users["augmentd"]["fallback"] {
		t.Error("augmentd -fallback is gone, but sfcaugment's recipe counts for it")
	}
}

// TestFlagUsersArePerCommand builds a repository in which a flag is set
// only in another command's recipe: it must not count as a user of the
// command that registers it, while a binary built from a command, a
// continued recipe line, bench/ and a census row that names its command all
// count for theirs.
func TestFlagUsersArePerCommand(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", "smoke:\n"+
		"\tgo build -o fixture.bin ./cmd/fixture\n"+
		"\t./fixture.bin -kept\n"+
		"\tgo run ./cmd/other -stolen \\\n"+
		"\t\t-continued\n")
	write("bench/main.go", "package main // passes -benched\n")
	write("API.md", "# API\n\n## Knob census\n\n"+
		"| Flag | Set by |\n|---|---|\n| `-census` | bench |\n\n"+
		"| Flag | Set by |\n|---|---|\n| `fixture -row` | test |\n| `-orphan` | nothing |\n\n"+
		"### Constants that used to be flags\n\n| `fixture -gone` | gone |\n")
	write("cmd/fixture/main.go", `// Command fixture takes -kept, -row and -stolen.
package main

import "flag"

func main() {
	flag.Bool("kept", false, "set by a recipe that runs a binary built from this command")
	flag.Bool("row", false, "set by a census row naming this command")
	flag.Bool("stolen", false, "set only by another command's recipe")
}
`)
	users, err := flagUsers(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]bool{
		"fixture":     {"kept": true, "o": true, "row": true},
		"other":       {"stolen": true, "continued": true},
		"augmentd":    {"benched": true, "census": true},
		"experiments": {"benched": true},
	}
	if !reflect.DeepEqual(users, want) {
		t.Fatalf("flag users\n got %v\nwant %v", users, want)
	}
	findings, err := checkDir(filepath.Join(root, "cmd", "fixture"), users["fixture"])
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "-stolen (flag set by no Makefile recipe") {
		t.Fatalf("want one finding, for -stolen; got %q", findings)
	}
}
