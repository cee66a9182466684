// Command piql-vet runs the project's concurrency-invariant analyzers
// (internal/lint) over the whole module, loading every package from
// source:
//
//	go build -o bin/piql-vet ./cmd/piql-vet
//	piql-vet ./...                    # every analyzer over every package
//	piql-vet -json ./...              # findings as JSON
//	piql-vet -lockgraph ./...         # also print the inferred lock hierarchy
//	piql-vet -escapebudget [-update]  # hot-path heap-escape gate
//	                                  # (runs go build -gcflags=-m)
//	piql-vet -C DIR ...               # run as if started in DIR
//
// A parse-only scan orders the module's packages so each comes after
// the module-local packages it imports; each package is then
// typechecked and analyzed, and its function summaries (may-block,
// lock-acquisition sets, transient-error returns — see internal/lint)
// become facts its dependents' analyses read across the package
// boundary.
//
// Violations print as file:line:col diagnostics and exit with status 2;
// operational errors, an unknown flag among them, exit 1. A site that
// is allowed to break a rule carries a //lint:allow directive (see
// internal/lint).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"piql/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool; main only binds it to the process. Exit
// codes: 0 clean, 1 operational error, 2 findings.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("piql-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print findings as JSON on stdout")
	lockgraph := fs.Bool("lockgraph", false, "print the inferred lock hierarchy")
	escBudget := fs.Bool("escapebudget", false, "run only the hot-path heap-escape gate")
	escUpdate := fs.Bool("update", false, "with -escapebudget, rewrite escape.budget to the measured counts")
	chdir := fs.String("C", ".", "run as if started in `dir`")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	for _, p := range fs.Args() {
		if p != "./..." && p != "all" {
			fmt.Fprintf(stderr, "piql-vet: analyzes the whole module; unsupported pattern %q (use ./...)\n", p)
			return 1
		}
	}
	if *escBudget {
		return runEscapeBudget(*chdir, *escUpdate, *jsonOut, stdout, stderr)
	}
	if *escUpdate {
		fmt.Fprintln(stderr, "piql-vet: -update rewrites escape.budget and needs -escapebudget")
		return 1
	}
	return runModule(*chdir, *jsonOut, *lockgraph, stdout, stderr)
}

// runEscapeBudget is the escapebudget analyzer's driver: it needs the
// compiler's escape decisions, which source loading does not produce,
// so it builds the whole module with -gcflags=-m, attributes the heap
// escapes to the budgeted functions, and runs just that analyzer over
// the packages the budget file names. With update=true it rewrites the
// budget file to the measured counts instead of reporting.
func runEscapeBudget(start string, update, jsonOut bool, stdout, stderr io.Writer) int {
	loader, err := lint.NewLoader(start)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	root := loader.ModuleRoot
	budgetPath := filepath.Join(root, "escape.budget")
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: escape budget: %v\n", err)
		return 1
	}
	counts, order, err := lint.ParseEscapeBudget(data)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %s: %v\n", budgetPath, err)
		return 1
	}
	if len(counts) == 0 {
		fmt.Fprintf(stderr, "piql-vet: %s lists no functions; nothing gated\n", budgetPath)
		return 0
	}

	// The compiler replays -m diagnostics from the build cache, so a
	// warm re-run is cheap.
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: go build -gcflags=-m: %v\n%s", err, out)
		return 1
	}
	raws := lint.ParseEscapeDiagnostics(out)
	for i := range raws {
		if !filepath.IsAbs(raws[i].File) {
			raws[i].File = filepath.Join(root, raws[i].File)
		}
	}

	byPkg := map[string]map[string]int{}
	for fn, n := range counts {
		ip, _, ok := lint.EscapeBudgetImportPath(fn)
		if !ok {
			fmt.Fprintf(stderr, "piql-vet: %s: entry %q has no import path\n", budgetPath, fn)
			return 1
		}
		if byPkg[ip] == nil {
			byPkg[ip] = map[string]int{}
		}
		byPkg[ip][fn] = n
	}

	all := map[string][]lint.Diagnostic{}
	measured := map[string]int{}
	for _, ip := range sortedKeys(byPkg) {
		dir := root
		if ip != loader.ModulePath {
			if !strings.HasPrefix(ip, loader.ModulePath+"/") {
				fmt.Fprintf(stderr, "piql-vet: %s: %s is outside module %s\n", budgetPath, ip, loader.ModulePath)
				return 1
			}
			dir = filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(ip, loader.ModulePath+"/")))
		}
		fset := token.NewFileSet()
		var files []*ast.File
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: budgeted package %s: %v\n", ip, err)
			return 1
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				fmt.Fprintf(stderr, "piql-vet: %v\n", err)
				return 1
			}
			files = append(files, f)
		}
		declared := lint.DeclaredFuncKeys(files)
		sites := lint.AttributeEscapes(fset, files, ip, raws)
		for fn := range byPkg[ip] {
			_, key, _ := lint.EscapeBudgetImportPath(fn)
			if !declared[key] {
				fmt.Fprintf(stderr, "piql-vet: %s: %s is not declared in %s; remove or fix the stale entry\n",
					budgetPath, fn, ip)
				return 1
			}
			measured[fn] = len(sites[fn])
		}
		unit := &lint.Unit{
			Fset:       fset,
			Files:      files,
			ImportPath: ip,
			Escapes:    &lint.EscapeInfo{Budget: byPkg[ip], Sites: sites},
		}
		diags, _ := lint.RunUnit(unit, []*lint.Analyzer{lint.EscapeBudget})
		if len(diags) > 0 {
			all[ip] = diags
		}
	}

	if update {
		for fn := range counts {
			counts[fn] = measured[fn]
		}
		if err := os.WriteFile(budgetPath, lint.FormatEscapeBudget(counts, order), 0o666); err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "piql-vet: escape budget rewritten (%d entries)\n", len(order))
		return 0
	}
	// Under budget is not a failure, but say so: a budget that drifted
	// high lets regressions hide under it.
	for _, fn := range order {
		if measured[fn] < counts[fn] {
			fmt.Fprintf(stderr, "piql-vet: note: %s has %d heap escapes, under its budget of %d; tighten with make lint ESCAPE_BUDGET=update\n",
				fn, measured[fn], counts[fn])
		}
	}
	return emit(all, jsonOut, stdout, stderr)
}

func sortedKeys(m map[string]map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runModule analyzes every package of the module in dependency order,
// threading facts in memory: each package's facts are in the store
// before any package that imports it is analyzed.
func runModule(start string, jsonOut, lockgraph bool, stdout, stderr io.Writer) int {
	loader, err := lint.NewLoader(start)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	scan, err := loader.ScanModule()
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	store := lint.NewFactStore()
	all := map[string][]lint.Diagnostic{}
	for _, sp := range scan {
		unit, err := loader.LoadDir(sp.Dir, sp.ImportPath)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		unit.Facts = store
		diags, facts := lint.RunUnit(unit, lint.Analyzers)
		if len(diags) > 0 {
			all[sp.ImportPath] = diags
		}
		store.Add(sp.ImportPath, facts)
	}
	if lockgraph {
		fmt.Fprintln(stdout, "lock hierarchy (acquired-while-held, roots first):")
		for _, line := range lint.LockHierarchy(store.AllLockEdges(nil)) {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	return emit(all, jsonOut, stdout, stderr)
}

// emit prints diagnostics in the chosen format; exit status 2 when any
// exist. JSON mode always writes the payload — an empty object on a
// clean run — so redirecting it produces a findings artifact either
// way. Text mode prints diagnostics only.
func emit(byPkg map[string][]lint.Diagnostic, jsonOut bool, stdout, stderr io.Writer) int {
	n := 0
	for _, ds := range byPkg {
		n += len(ds)
	}
	if jsonOut {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		payload := map[string]any{}
		for pkg, ds := range byPkg {
			byAnalyzer := map[string][]jsonDiag{}
			for _, d := range ds {
				byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
					Posn:    d.Pos.String(),
					Message: d.Message,
				})
			}
			payload[pkg] = byAnalyzer
		}
		out, _ := json.MarshalIndent(payload, "", "\t")
		stdout.Write(append(out, '\n'))
	} else {
		for _, ds := range byPkg {
			for _, d := range ds {
				fmt.Fprintf(stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return 2
}
