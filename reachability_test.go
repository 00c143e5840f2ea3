package sphenergy

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesAreReachable keeps internal/ from accumulating
// packages nothing runs: every directory under internal/ must be imported,
// directly or through other packages, by a program that consumes the
// repository — cmd/*, benchmark or this root package. examples/ are not
// roots (an example demonstrates code something else runs) and _test.go
// files are not read (a package only its own tests reach is scaffolding).
func TestInternalPackagesAreReachable(t *testing.T) {
	const module = "sphenergy/"
	imports := map[string][]string{} // package directory -> module-relative imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		deps := imports[dir]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, module); ok {
				deps = append(deps, rel)
			}
		}
		imports[dir] = deps // a package with no imports is still a package
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, dep := range imports[dir] {
			visit(dep)
		}
	}
	roots := 0
	for dir := range imports {
		if dir == "." || dir == "benchmark" || strings.HasPrefix(dir, "cmd/") {
			visit(dir)
			roots++
		}
	}
	if roots < 3 {
		t.Fatalf("found %d root packages; is the test running in the repository root?", roots)
	}

	var orphans []string
	for dir := range imports {
		if strings.HasPrefix(dir, "internal/") && !reached[dir] {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s is imported by no program (cmd/*, benchmark, the root package): give it a caller that runs or delete it", dir)
	}
}
