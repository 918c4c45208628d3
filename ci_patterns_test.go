package ordlog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests: every -run and -bench pattern of a go test
// command in the CI workflow names tests that exist. Each top-level
// alternative of a pattern (split at |) must match some Test, Benchmark or
// Fuzz function declared in the _test.go files of the packages the command
// names (./... patterns expanded by walking the tree); '^$', which runs
// nothing on purpose, is exempt. A renamed or deleted test otherwise leaves
// a CI step that silently runs less than it says.
func TestCIPatternsNameTests(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string][]string) // package dir -> its test function names
	commands := 0
	for n, line := range strings.Split(string(src), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		commands++
		args := shellFields(line[i+len("go test "):])
		var pkgs []string
		type pat struct{ flag, expr string }
		var pats []pat
		for k := 0; k < len(args); k++ {
			a := args[k]
			switch {
			case a == "-run" || a == "-bench":
				if k+1 < len(args) {
					pats = append(pats, pat{a, args[k+1]})
					k++
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-bench="):
				flag, expr, _ := strings.Cut(a, "=")
				pats = append(pats, pat{flag, expr})
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		var dirs []string
		for _, p := range pkgs {
			dirs = append(dirs, packageDirs(t, p)...)
		}
		for _, p := range pats {
			if p.expr == "^$" {
				continue
			}
			for _, alt := range topLevelAlternatives(p.expr) {
				top, _, _ := strings.Cut(alt, "/") // subtest levels follow the first /
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("ci.yml:%d: %s %q: %v", n+1, p.flag, alt, err)
					continue
				}
				if !anyTestMatches(t, names, dirs, re) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no test function in %v", n+1, p.flag, alt, pkgs)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test command in ci.yml")
	}
}

// shellFields splits a shell command line into words, honouring single and
// double quotes (enough for the workflow's go test lines).
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				out = append(out, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		out = append(out, cur.String())
	}
	return out
}

// topLevelAlternatives splits a regular expression at the | signs outside
// parentheses and brackets.
func topLevelAlternatives(expr string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(expr); i++ {
		switch expr[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, expr[start:i])
				start = i + 1
			}
		}
	}
	return append(out, expr[start:])
}

// packageDirs resolves a package argument of go test to directories: a
// ./... pattern to every directory under its root.
func packageDirs(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	if pkg == "./..." {
		root, recursive = ".", true
	}
	root = filepath.Clean(root)
	if !recursive {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// anyTestMatches reports whether re matches a Test, Benchmark or Fuzz
// function declared in some directory's _test.go files.
func anyTestMatches(t *testing.T, names map[string][]string, dirs []string, re *regexp.Regexp) bool {
	t.Helper()
	for _, dir := range dirs {
		fns, ok := names[dir]
		if !ok {
			fns = testFuncs(t, dir)
			names[dir] = fns
		}
		for _, fn := range fns {
			if re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the Test, Benchmark and Fuzz functions of a directory's
// _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out = append(out, fn.Name.Name)
				}
			}
		}
	}
	return out
}
