package main

import (
	"os"
	"path/filepath"
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
// count as used, and a removed flag does not.
func TestFlagUsersReadsTheRepository(t *testing.T) {
	users, err := flagUsers(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chaos-mtbf", "snapshot-every", "probe-every"} {
		if !users[name] {
			t.Errorf("-%s has a user but flagUsers does not see it", name)
		}
	}
	for _, name := range []string{"restore", "reaug-budget", "fail-soft"} {
		if users[name] {
			t.Errorf("-%s is gone but flagUsers still counts a user", name)
		}
	}
}
