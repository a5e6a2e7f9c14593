// The CI test-name gate. A `go test -run` pattern narrows a step to the
// tests it matches, and an alternative that matches no test narrows it
// without an error: a step can go on naming a test after the test is
// deleted or renamed, and pass while running less than it says. This
// test reads every `go test` command of scripts/check.sh and
// .github/workflows/ci.yml, and the benchmark families of
// scripts/bench.sh, and requires every pattern to name a function that
// a package the command names declares. It uses go/parser only, like
// the test-only API gate.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestCIPatternsNameTests checks, for every go test command in the CI
// scripts, that each top-level alternative of -run (other than ^$)
// matches a Test function and each -fuzz pattern a Fuzz function of a
// package the command names; and for every benchmark family of
// scripts/bench.sh, that each alternative of its regexp matches a
// Benchmark function of its package.
func TestCIPatternsNameTests(t *testing.T) {
	decls := map[string]map[string][]string{} // package dir -> prefix -> function names
	funcs := func(dir, prefix string) []string {
		if decls[dir] == nil {
			decls[dir] = testFuncs(t, dir)
		}
		return decls[dir][prefix]
	}
	// check requires every alternative of pattern to match a function
	// with the given prefix in one of dirs.
	check := func(where, flag, pattern, prefix string, dirs []string) int {
		if len(dirs) == 0 {
			t.Errorf("%s: %s %q: the command names no package", where, flag, pattern)
			return 0
		}
		n := 0
		for _, alt := range alternatives(pattern) {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s: %s %q: %v", where, flag, pattern, err)
				continue
			}
			n++
			if !slices.ContainsFunc(dirs, func(dir string) bool { return slices.ContainsFunc(funcs(dir, prefix), re.MatchString) }) {
				t.Errorf("%s: %s alternative %q matches no %s function in %v", where, flag, alt, prefix, dirs)
			}
		}
		return n
	}

	// The workflow may hand every -run pattern to check.sh, so the
	// vacuous-scan guard counts patterns over both files; each file must
	// still yield its go test commands.
	checked := 0
	for _, file := range []string{"scripts/check.sh", ".github/workflows/ci.yml"} {
		cmds := goTestCommands(t, file)
		if len(cmds) == 0 {
			t.Errorf("%s: found no go test command (vacuous scan)", file)
		}
		before := checked
		for _, cmd := range cmds {
			var dirs []string
			for _, pkg := range cmd.pkgs {
				dirs = append(dirs, packageDirs(t, pkg)...)
			}
			if cmd.run != "" {
				checked += check(file, "-run", cmd.run, "Test", dirs)
			}
			if cmd.fuzz != "" {
				checked += check(file, "-fuzz", cmd.fuzz, "Fuzz", dirs)
			}
		}
		t.Logf("%s: %d go test commands, %d pattern alternatives", file, len(cmds), checked-before)
	}
	if checked == 0 {
		t.Error("found no -run or -fuzz pattern to check (vacuous scan)")
	}

	families := benchFamilies(t, "scripts/bench.sh")
	if len(families) == 0 {
		t.Fatal("scripts/bench.sh: found no benchmark families (vacuous scan)")
	}
	for _, f := range families {
		check("scripts/bench.sh FAMILIES", "-bench", f[1], "Benchmark", packageDirs(t, f[0]))
	}
}

// goTestCmd is the part of one go test command the gate checks.
type goTestCmd struct {
	run, fuzz string
	pkgs      []string // package arguments, as written
}

// goTestCommands returns the go test commands of a shell script or a
// workflow file: every line, with \-continued lines joined, whose
// command (after a YAML "- " and "run: ") starts with "go test".
func goTestCommands(t *testing.T, file string) []goTestCmd {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []goTestCmd
	for _, line := range strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n") {
		line = strings.TrimSpace(line)
		line = strings.TrimPrefix(line, "- ")
		line = strings.TrimPrefix(line, "run: ")
		words := shellWords(line)
		if len(words) < 2 || words[0] != "go" || words[1] != "test" {
			continue
		}
		var cmd goTestCmd
		for i := 2; i < len(words); i++ {
			w := words[i]
			if !strings.HasPrefix(w, "-") {
				if strings.HasPrefix(w, ".") {
					cmd.pkgs = append(cmd.pkgs, w)
				}
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && goTestValueFlags[name] && i+1 < len(words) {
				i++
				value = words[i]
			}
			switch name {
			case "run":
				cmd.run = value
			case "fuzz":
				cmd.fuzz = value
			}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// goTestValueFlags are the go test flags the scripts use that take their
// value as the next word when it is not joined with "=".
var goTestValueFlags = map[string]bool{
	"run": true, "fuzz": true, "bench": true, "count": true, "fuzztime": true,
	"benchtime": true, "timeout": true, "coverprofile": true, "coverpkg": true,
}

// shellWords splits a command line into words for the quoting the CI
// scripts use (single and double quotes, no expansion), up to the first
// unquoted ;, &, | or >.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	inWord := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				w.WriteByte(c)
			}
			continue
		case c == '\'' || c == '"':
			quote, inWord = c, true
			continue
		case c != ' ' && c != '\t' && !strings.ContainsRune(";&|>", rune(c)):
			w.WriteByte(c)
			inWord = true
			continue
		}
		if inWord {
			words = append(words, w.String())
			w.Reset()
			inWord = false
		}
		if c != ' ' && c != '\t' {
			return words
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// alternatives returns the top-level | alternatives of the first
// /-separated element of a go test -run, -fuzz or -bench pattern: the
// element go test matches against top-level function names.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case depth == 0 && c == '|':
			alts = append(alts, pattern[start:i])
			start = i + 1
		case depth == 0 && c == '/':
			return append(alts, pattern[start:i])
		}
	}
	return append(alts, pattern[start:])
}

// packageDirs expands a package argument of go test: a directory, or a
// directory followed by /... for it and every package below it that is
// in the same module.
func packageDirs(t *testing.T, pkg string) []string {
	t.Helper()
	root, all := strings.CutSuffix(pkg, "...")
	root = filepath.Clean(root)
	if !all {
		return []string{root}
	}
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
		}
		if gos, _ := filepath.Glob(filepath.Join(p, "*.go")); len(gos) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs returns the top-level Test, Fuzz and Benchmark function names
// the _test.go files of dir declare, keyed by that prefix.
func testFuncs(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if rest, ok := strings.CutPrefix(fd.Name.Name, prefix); ok && (rest == "" || !unicode.IsLower(rune(rest[0]))) {
					out[prefix] = append(out[prefix], fd.Name.Name)
				}
			}
		}
	}
	return out
}

// benchFamilies returns the {package, regexp} lines of the FAMILIES
// list in scripts/bench.sh.
func benchFamilies(t *testing.T, file string) [][2]string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "\nFAMILIES='")
	if !ok {
		t.Fatalf("%s: no FAMILIES list", file)
	}
	list, _, ok := strings.Cut(rest, "'")
	if !ok {
		t.Fatalf("%s: unterminated FAMILIES list", file)
	}
	var out [][2]string
	for _, line := range strings.Split(list, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			out = append(out, [2]string{f[0], f[1]})
		} else if len(f) != 0 {
			t.Errorf("%s: FAMILIES line %q is not \"<package> <regexp>\"", file, line)
		}
	}
	return out
}
