package lint

// Program loading. The linter type-checks every package under the
// module root using only the standard library: go/parser for syntax,
// go/types for semantics, and go/importer's "source" mode for
// dependencies outside the module (the standard library itself). This
// keeps rrslint free of module dependencies, per the repo's
// no-new-deps policy.
//
// Each directory yields up to two lint units:
//
//   - the primary unit: the package's compiled files merged with its
//     in-package _test.go files (test code is linted too — that is
//     where float comparisons and stray math/rand imports live);
//   - an external-test unit (package foo_test), type-checked against
//     the primary unit so test helpers exported via export_test.go
//     patterns resolve.
//
// Import resolution for sibling module packages type-checks only the
// non-test files, memoized per loader, so units see the same package
// identity the compiler does.

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Unit is one type-checked lint target.
type Unit struct {
	Dir   string // module-relative directory, "" for the module root
	Name  string // package name as written in the source
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// srcFile is one parsed source file.
type srcFile struct {
	path string
	name string // file name only
	pkg  string // package clause
	test bool   // *_test.go
	file *ast.File
}

type loader struct {
	root    string // absolute module root
	modPath string
	fset    *token.FileSet
	std     types.ImporterFrom
	memo    map[string]*types.Package // import path -> non-test package
	loading map[string]bool           // cycle detection
	parsed  map[string][]srcFile      // dir -> parse results
}

func newLoader(root, modPath string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &loader{
		root:    abs,
		modPath: modPath,
		fset:    fset,
		std:     std,
		memo:    map[string]*types.Package{},
		loading: map[string]bool{},
		parsed:  map[string][]srcFile{},
	}, nil
}

// moduleRel maps an import path inside the module to a module-relative
// directory ("" for the root package).
func (l *loader) moduleRel(path string) (string, bool) {
	if path == l.modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// importPath is the inverse of moduleRel.
func (l *loader) importPath(rel string) string {
	if rel == "" {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	rel, ok := l.moduleRel(path)
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if pkg, ok := l.memo[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	compiled, err := l.compiledFiles(rel, path)
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.typeCheck(path, compiled, l, false)
	if err != nil {
		return nil, err
	}
	l.memo[path] = pkg
	return pkg, nil
}

// compiledFiles returns the non-test files of the module package at
// module-relative directory rel (import path path).
func (l *loader) compiledFiles(rel, path string) ([]*ast.File, error) {
	files, err := l.parseDir(rel)
	if err != nil {
		return nil, err
	}
	var compiled []*ast.File
	for _, sf := range files {
		if !sf.test && !strings.HasSuffix(sf.pkg, "_test") {
			compiled = append(compiled, sf.file)
		}
	}
	if len(compiled) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files for import %q", path)
	}
	return compiled, nil
}

// imports reports whether the module package path imports target,
// directly or through other module packages, in its non-test files.
func (l *loader) imports(path, target string, seen map[string]bool) (bool, error) {
	rel, ok := l.moduleRel(path)
	if !ok || seen[path] {
		return false, nil
	}
	seen[path] = true
	files, err := l.compiledFiles(rel, path)
	if err != nil {
		return false, err
	}
	for _, f := range files {
		for _, spec := range f.Imports {
			dep, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return false, err
			}
			if dep == target {
				return true, nil
			}
			if found, err := l.imports(dep, target, seen); found || err != nil {
				return found, err
			}
		}
	}
	return false, nil
}

// parseDir parses every .go file in the module-relative directory rel,
// memoized so lint units and import resolution share one AST per file.
func (l *loader) parseDir(rel string) ([]srcFile, error) {
	if files, ok := l.parsed[rel]; ok {
		return files, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []srcFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildOK(f) {
			continue
		}
		files = append(files, srcFile{
			path: path,
			name: name,
			pkg:  f.Name.Name,
			test: strings.HasSuffix(name, "_test.go"),
			file: f,
		})
	}
	l.parsed[rel] = files
	return files, nil
}

// buildOK reports whether the file's //go:build constraint (if any) is
// satisfied under the default build configuration the linter models:
// the host GOOS/GOARCH and Go release tags are true, feature tags such
// as "race" are false. Files excluded by their constraint (e.g. the
// race/!race constant pairs some tests use) must not be merged into
// one lint unit — the compiler never sees them together either.
func buildOK(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed constraint: let go/types complain
			}
			return expr.Eval(func(tag string) bool {
				if tag == runtime.GOOS || tag == runtime.GOARCH {
					return true
				}
				return strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// typeCheck runs go/types over files using imp for imports. withInfo
// selects whether expression/object facts are recorded (lint units
// need them; import resolution does not).
func (l *loader) typeCheck(path string, files []*ast.File, imp types.ImporterFrom, withInfo bool) (*types.Package, *types.Info, error) {
	var info *types.Info
	if withInfo {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// override resolves one import path to a fixed package (the merged
// package-under-test for external _test units) and defers everything
// else to the loader — except module packages that themselves import
// the package under test. Like the go tool, which recompiles those for
// the test, it re-checks them against the fixed package, so one
// identity of the package under test flows through the whole unit.
type override struct {
	l    *loader
	path string
	pkg  *types.Package
	memo map[string]*types.Package // re-checked dependents of path
}

func (o override) Import(path string) (*types.Package, error) {
	return o.ImportFrom(path, o.l.root, 0)
}

func (o override) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == o.path {
		return o.pkg, nil
	}
	if pkg, ok := o.memo[path]; ok {
		return pkg, nil
	}
	dependent, err := o.l.imports(path, o.path, map[string]bool{})
	if err != nil {
		return nil, err
	}
	if !dependent {
		return o.l.ImportFrom(path, dir, mode)
	}
	rel, _ := o.l.moduleRel(path)
	files, err := o.l.compiledFiles(rel, path)
	if err != nil {
		return nil, err
	}
	pkg, _, err := o.l.typeCheck(path, files, o, false)
	if err != nil {
		return nil, err
	}
	o.memo[path] = pkg
	return pkg, nil
}

// discoverDirs lists every module-relative directory containing Go
// files, skipping VCS internals, testdata fixtures, and hidden or
// underscore-prefixed directories, per the go tool's conventions.
func (l *loader) discoverDirs() ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != l.root && (base == "testdata" || base == ".git" ||
				strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			rel, err := filepath.Rel(l.root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for rel := range seen {
		dirs = append(dirs, rel)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirSelected reports whether rel is included by the patterns: exact
// module-relative directories, or subtree patterns ending in "/...".
// An empty pattern list selects everything.
func dirSelected(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if sub, ok := strings.CutSuffix(p, "..."); ok {
			sub = strings.TrimSuffix(sub, "/")
			if sub == "" || rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == p {
			return true
		}
	}
	return false
}

// units loads and type-checks every lint unit selected by patterns.
func (l *loader) units(patterns []string) ([]*Unit, error) {
	dirs, err := l.discoverDirs()
	if err != nil {
		return nil, err
	}
	var units []*Unit
	for _, rel := range dirs {
		if !dirSelected(rel, patterns) {
			continue
		}
		files, err := l.parseDir(rel)
		if err != nil {
			return nil, err
		}
		groups := map[string][]srcFile{}
		var names []string
		for _, sf := range files {
			if _, ok := groups[sf.pkg]; !ok {
				names = append(names, sf.pkg)
			}
			groups[sf.pkg] = append(groups[sf.pkg], sf)
		}
		sort.Strings(names)
		var primary, ext string
		for _, name := range names {
			if strings.HasSuffix(name, "_test") {
				if ext != "" {
					return nil, fmt.Errorf("lint: %s: multiple external test packages (%s, %s)", rel, ext, name)
				}
				ext = name
				continue
			}
			if primary != "" {
				return nil, fmt.Errorf("lint: %s: multiple packages (%s, %s)", rel, primary, name)
			}
			primary = name
		}
		path := l.importPath(rel)
		var primaryUnit *Unit
		if primary != "" {
			var asts []*ast.File
			for _, sf := range groups[primary] {
				asts = append(asts, sf.file)
			}
			pkg, info, err := l.typeCheck(path, asts, l, true)
			if err != nil {
				return nil, err
			}
			primaryUnit = &Unit{Dir: rel, Name: primary, Files: asts, Info: info, Pkg: pkg}
			units = append(units, primaryUnit)
		}
		if ext != "" {
			var asts []*ast.File
			for _, sf := range groups[ext] {
				asts = append(asts, sf.file)
			}
			var imp types.ImporterFrom = l
			if primaryUnit != nil {
				imp = override{l: l, path: path, pkg: primaryUnit.Pkg, memo: map[string]*types.Package{}}
			}
			pkg, info, err := l.typeCheck(path+"_test", asts, imp, true)
			if err != nil {
				return nil, err
			}
			units = append(units, &Unit{Dir: rel, Name: ext, Files: asts, Info: info, Pkg: pkg})
		}
	}
	return units, nil
}
