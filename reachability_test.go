package sphenergy

import (
	"go/ast"
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
// repository — cmd/*, benchmark or this root package. _test.go files are
// not read (a package only its own tests reach is scaffolding).
func TestInternalPackagesAreReachable(t *testing.T) {
	imports := map[string][]string{} // package directory -> module-relative imports
	for _, gf := range nonTestFiles(t, parser.ImportsOnly) {
		deps := imports[gf.dir]
		for _, spec := range gf.f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(p, module); ok {
				deps = append(deps, rel)
			}
		}
		imports[gf.dir] = deps // a package with no imports is still a package
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

// TestTopLevelFunctionsHaveACaller is the same rule one level down: every
// top-level function declared in a non-test file must be named by some
// non-test file outside its own body — as alias.F through an import, or as
// F inside its own package. Methods are out of reach (a method is named
// through a value, not a package), and so are main, init and the root
// facade's exported functions, which exist to be called from outside the
// module.
func TestTopLevelFunctionsHaveACaller(t *testing.T) {
	files := nonTestFiles(t, parser.SkipObjectResolution)
	pkgName := map[string]string{} // package directory -> package name
	for _, gf := range files {
		pkgName[gf.dir] = gf.f.Name.Name
	}

	named := map[funcRef]bool{}
	var declared []funcRef
	for _, gf := range files {
		// The file's import names: local name -> package directory.
		alias := map[string]string{}
		for _, spec := range gf.f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(p, module); ok {
				name := pkgName[rel]
				if spec.Name != nil {
					name = spec.Name.Name
				}
				alias[name] = rel
			}
		}
		for _, decl := range gf.f.Decls {
			self := "" // a function naming itself is recursion, not a caller
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
				declared = append(declared, funcRef{gf.dir, self})
			}
			var visit func(ast.Node) bool
			walk := func(n ast.Node) {
				if n != nil {
					ast.Inspect(n, visit)
				}
			}
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // its name is a declaration, not a use
					if n.Recv != nil {
						walk(n.Recv)
					}
					walk(n.Type)
					if n.Body != nil {
						walk(n.Body)
					}
					return false
				case *ast.Field: // so are field and parameter names
					walk(n.Type)
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := alias[x.Name]; ok {
							named[funcRef{dir, n.Sel.Name}] = true
							return false
						}
					}
					walk(n.X) // n.Sel names a field or a method
					return false
				case *ast.Ident:
					if n.Name != self {
						named[funcRef{gf.dir, n.Name}] = true
					}
				}
				return true
			}
			walk(decl)
		}
	}

	var missing []string
	for _, d := range declared {
		exempt := d.name == "main" || d.name == "init" || d.dir == "." && ast.IsExported(d.name)
		if !exempt && !named[d] {
			missing = append(missing, d.dir+"."+d.name)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is named by no non-test file: give it a caller that runs or delete it (a helper only tests use belongs in a _test.go file)", m)
	}
}

// TestConfigFieldsHaveASetter is the same rule for settings: every field of
// a struct type named Config, Options or Params, or ending in one of those
// names, declared in a non-test file under internal/, must be written by
// name in some non-test file — as a keyed literal element F: v or as the
// left-hand side of x.F = v — outside a defaulting function (Defaulted,
// defaulted, withDefaults). A field no program sets is a constant every run
// shares: make it one, or delete it with what only it selects. Matching is
// by field name alone, so a write to a same-named field of another type
// counts; the rule is lenient on collisions, not strict.
func TestConfigFieldsHaveASetter(t *testing.T) {
	// testSetOnly are the fields only a test sets, each with the test that
	// does and needs it.
	testSetOnly := map[string]string{
		"core.Config.CustomPipeline": "Example_customPipeline",
		"attrib.Options.TolerancePct": "TestRenderAttribution; report.json's " +
			"attribution opts serialize it",
		"attrib.Options.MinResolvablePeriods": "TestRenderAttribution; likewise",
		"sampler.Config.RingCap": "TestChannelRingOverflow and " +
			"TestSamplerOverflowFailsAttributionWithReason, which reach ring overflow",
		"recovery.Config.BackoffS": "TestSupervisedCrashRecoveryBitIdentical, " +
			"which cannot wait out the default base per restart",
		"recovery.Config.Watchdog":             "TestSupervisedWatchdogStallRestarts",
		"recovery.WatchdogConfig.Mult":         "TestSupervisedWatchdogStallRestarts, which cannot wait out a 30 s deadline",
		"recovery.WatchdogConfig.MinDeadlineS": "TestSupervisedWatchdogStallRestarts, likewise",
		"recovery.WatchdogConfig.PollS":        "TestSupervisedWatchdogStallRestarts, likewise",
		"sph.Options.NgMax": "the overflow tests and the sequence fuzzers, which " +
			"reach ngmax truncation through it",
	}

	files := nonTestFiles(t, parser.SkipObjectResolution)
	written := map[string]bool{} // field names written outside a defaulting function
	var fields []string          // pkg.Type.Field of every field in scope
	for _, gf := range files {
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch d.Name.Name {
				case "Defaulted", "defaulted", "withDefaults":
					continue
				}
			case *ast.GenDecl:
				if !strings.HasPrefix(gf.dir, "internal/") {
					break
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					name := gf.f.Name.Name + "." + ts.Name.Name
					if !ok || !isSettingsType(ts.Name.Name) {
						continue
					}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							fields = append(fields, name+"."+id.Name)
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						written[k.Name] = true
					}
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN {
						break // x.F += d updates a value something else set
					}
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							written[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("no settings types found; is the test running in the repository root?")
	}

	sort.Strings(fields)
	inScope := map[string]bool{}
	for _, f := range fields {
		inScope[f] = true
		name := f[strings.LastIndexByte(f, '.')+1:]
		_, allowed := testSetOnly[f]
		switch {
		case !written[name] && !allowed:
			t.Errorf("%s is set by no non-test file outside its defaults: make it a constant or delete it", f)
		case written[name] && allowed:
			t.Errorf("%s is set by a program now: drop it from the test-only list", f)
		}
	}
	for f, test := range testSetOnly {
		if !inScope[f] {
			t.Errorf("%s (set by %s) is no longer a field in scope: drop it from the test-only list", f, test)
		}
	}
}

// isSettingsType reports whether a type name is in the scope of
// TestConfigFieldsHaveASetter.
func isSettingsType(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Params"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// funcRef names a top-level function by its package directory.
type funcRef struct{ dir, name string }

// module is the import-path prefix of the repository's packages.
const module = "sphenergy/"

// goFile is one parsed Go file and its package directory, module-relative.
type goFile struct {
	dir string
	f   *ast.File
}

// nonTestFiles parses every non-test Go file of the repository with mode,
// skipping hidden directories (.git, .bench_build).
func nonTestFiles(t *testing.T, mode parser.Mode) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
