package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Parse-only module scan, the driver's one package enumeration: it
// yields every package's module-local import edges, so the driver can
// typecheck and analyze packages in dependency order and every
// package's facts exist before its dependents read them.

// ScannedPackage is one package found by ScanModule.
type ScannedPackage struct {
	Dir        string
	ImportPath string
	// LocalImports are the module-local packages it imports, sorted.
	LocalImports []string
}

// ScanModule enumerates the loader's module packages by parsing import
// clauses only, returning them topologically sorted: every package
// after all module-local packages it imports.
func (l *Loader) ScanModule() ([]*ScannedPackage, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != l.ModuleRoot && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		entries, rdErr := os.ReadDir(p)
		if rdErr != nil {
			return rdErr
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	fset := token.NewFileSet()
	byPath := map[string]*ScannedPackage{}
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		sp := &ScannedPackage{Dir: dir, ImportPath: path}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		imports := map[string]bool{}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil &&
					(p == l.ModulePath || strings.HasPrefix(p, l.ModulePath+"/")) {
					imports[p] = true
				}
			}
		}
		for p := range imports {
			sp.LocalImports = append(sp.LocalImports, p)
		}
		sort.Strings(sp.LocalImports)
		byPath[path] = sp
		order = append(order, path)
	}

	// Topological order (DFS, stable over the sorted path list).
	var out []*ScannedPackage
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		sp, ok := byPath[path]
		if !ok {
			return nil // import of a module path with no buildable package
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range sp.LocalImports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = 2
		out = append(out, sp)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}
