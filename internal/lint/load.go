package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Loader parses and typechecks this module's packages from source,
// with no go/packages and no network: module-local imports resolve
// recursively through the loader itself, standard-library imports
// through the source importer (which reads $GOROOT/src — the
// toolchain ships it). Both drivers use it: piql-vet loads each package
// ScanModule lists, in dependency order, and linttest loads fixtures.
type Loader struct {
	fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; ModulePath the
	// declared module path ("piql").
	ModuleRoot string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Unit
	loading map[string]bool
}

// NewLoader finds the enclosing module of start (a file or directory)
// and returns a loader rooted there.
func NewLoader(start string) (*Loader, error) {
	abs, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	dir := abs
	if fi, err := os.Stat(abs); err == nil && !fi.IsDir() {
		dir = filepath.Dir(abs)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("lint: no go.mod found above %s", start)
		}
		dir = parent
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: %s/go.mod has no module directive", dir)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		ModuleRoot: dir,
		ModulePath: string(m[1]),
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Unit{},
		loading:    map[string]bool{},
	}, nil
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer over both halves of the world.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		u, err := l.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return l.std.Import(path)
}

// loadImportPath loads a module-local package by import path.
func (l *Loader) loadImportPath(path string) (*Unit, error) {
	if u, ok := l.pkgs[path]; ok {
		return u, nil
	}
	dir := l.ModuleRoot
	if path != l.ModulePath {
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and typechecks the non-test .go files of one
// directory under the given import path (which may be synthetic, as
// for test fixtures) into a Unit ready for RunUnit. Results are
// memoized by import path.
func (l *Loader) LoadDir(dir, path string) (*Unit, error) {
	if u, ok := l.pkgs[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	u := &Unit{
		Fset:       l.fset,
		Files:      files,
		ImportPath: path,
		Pkg:        pkg,
		Info:       info,
	}
	l.pkgs[path] = u
	return u, nil
}
