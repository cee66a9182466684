// Command piql-vet runs the project's concurrency-invariant analyzers
// (internal/lint) over the whole module, loading every package from
// source:
//
//	go build -o bin/piql-vet ./cmd/piql-vet
//	piql-vet ./...                    # every analyzer over every package
//	piql-vet -json ./...              # findings as JSON, plus a "timing"
//	                                  # entry (elapsed, analyzed vs replayed)
//	piql-vet -lockgraph ./...         # also print the inferred lock hierarchy
//	piql-vet -cache DIR ./...         # incremental: replay per-package
//	                                  # results keyed by content+facts
//	piql-vet -changed BASE ./...      # report only packages differing from
//	                                  # the merge-base with BASE, plus
//	                                  # their module-local dependents
//	piql-vet -dataflow FUNC           # dump FUNC's def-use chains
//	                                  # (dataflow core debug printer)
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
	"crypto/sha256"
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
	"time"

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
	jsonOut := fs.Bool("json", false, "print findings as JSON on stdout, with a timing entry")
	lockgraph := fs.Bool("lockgraph", false, "print the inferred lock hierarchy")
	escBudget := fs.Bool("escapebudget", false, "run only the hot-path heap-escape gate")
	escUpdate := fs.Bool("update", false, "with -escapebudget, rewrite escape.budget to the measured counts")
	cacheDir := fs.String("cache", "", "replay unchanged packages' results from `dir`")
	changed := fs.String("changed", "", "report only packages changed since the merge-base with git `ref`, plus their dependents")
	dataflowFn := fs.String("dataflow", "", "print the def-use chains of `func` and exit")
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
	switch {
	case *escBudget:
		return runEscapeBudget(*chdir, *escUpdate, *jsonOut, stdout, stderr)
	case *dataflowFn != "":
		return runDataflowDump(*chdir, *dataflowFn, stdout, stderr)
	}
	return runModule(*chdir, *cacheDir, *changed, *jsonOut, *lockgraph, stdout, stderr)
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
	return emit(all, jsonOut, nil, stdout, stderr)
}

func sortedKeys(m map[string]map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runTiming is the run record every -json payload of a module run
// carries: wall-clock for the whole run and how many packages were
// analyzed rather than replayed from cache. Comparing a cold run
// (analyzed == packages) with a warm one (replayed == packages) is the
// lint-timing record make lint keeps in bin/lint-findings.json.
type runTiming struct {
	ElapsedMS int64 `json:"elapsed_ms"`
	Packages  int   `json:"packages"`
	Analyzed  int   `json:"analyzed"`
	Replayed  int   `json:"replayed"`
}

// cacheEntry is one package's cached lint result. Its key (the file
// name) is a hash of the tool, the package's file contents, and its
// module-local dependencies' encoded facts — so an edit anywhere
// invalidates exactly the edited package and its transitive
// dependents, and a tool rebuild invalidates everything.
type cacheEntry struct {
	Diags []lint.Diagnostic `json:"diags,omitempty"`
	Facts json.RawMessage   `json:"facts,omitempty"`
}

// runModule analyzes every package of the module in dependency order,
// threading facts in memory. With a cache directory it is incremental:
// a package whose files, dependencies' facts, and tool binary are all
// unchanged replays its cached diagnostics and facts instead of being
// typechecked, so a warm clean tree replays entirely. With -changed
// BASE, every package still contributes facts, but only packages
// differing from the merge-base with BASE — or depending on one that
// does — report diagnostics.
func runModule(start, cacheDir, changedBase string, jsonOut, lockgraph bool, stdout, stderr io.Writer) int {
	startTime := time.Now()
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
	var affected map[string]bool
	if changedBase != "" {
		affected, err = changedPackages(start, changedBase, scan)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		if len(affected) == 0 {
			fmt.Fprintf(stderr, "piql-vet: no module packages changed relative to %s\n", changedBase)
			return emit(map[string][]lint.Diagnostic{}, jsonOut, nil, stdout, stderr)
		}
	}
	var salt string
	if cacheDir != "" {
		if err := os.MkdirAll(cacheDir, 0o777); err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		salt = toolSalt()
	}
	store := lint.NewFactStore()
	factBytes := map[string][]byte{}
	all := map[string][]lint.Diagnostic{}
	record := func(path string, diags []lint.Diagnostic, facts *lint.PackageFacts) {
		if len(diags) > 0 {
			all[path] = diags
		}
		store.Add(path, facts)
	}
	replayed := 0
	for _, sp := range scan {
		var entryPath string
		if cacheDir != "" {
			if entryPath, err = cacheEntryPath(cacheDir, salt, sp, factBytes); err != nil {
				fmt.Fprintf(stderr, "piql-vet: %v\n", err)
				return 1
			}
			if ce, facts, ok := readCacheEntry(entryPath, sp.ImportPath, stderr); ok {
				record(sp.ImportPath, ce.Diags, facts)
				factBytes[sp.ImportPath] = ce.Facts
				replayed++
				continue
			}
		}
		unit, err := loader.LoadDir(sp.Dir, sp.ImportPath)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		unit.Facts = store
		diags, facts := lint.RunUnit(unit, lint.Analyzers)
		record(sp.ImportPath, diags, facts)
		if entryPath != "" {
			enc := lint.EncodeFacts(facts)
			factBytes[sp.ImportPath] = enc
			if out, err := json.Marshal(cacheEntry{Diags: diags, Facts: enc}); err == nil {
				if werr := os.WriteFile(entryPath, out, 0o666); werr != nil {
					fmt.Fprintf(stderr, "piql-vet: writing cache entry: %v\n", werr)
				}
			}
		}
	}
	if lockgraph {
		fmt.Fprintln(stdout, "lock hierarchy (acquired-while-held, roots first):")
		for _, line := range lint.LockHierarchy(store.AllLockEdges(nil)) {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	filterAffected(all, affected)
	return emit(all, jsonOut, &runTiming{
		ElapsedMS: time.Since(startTime).Milliseconds(),
		Packages:  len(scan),
		Analyzed:  len(scan) - replayed,
		Replayed:  replayed,
	}, stdout, stderr)
}

// cacheEntryPath keys one package's cache entry by the tool salt, the
// package's file contents, and its module-local dependencies' encoded
// facts (already computed: the scan is in dependency order).
func cacheEntryPath(cacheDir, salt string, sp *lint.ScannedPackage, factBytes map[string][]byte) (string, error) {
	h := sha256.New()
	io.WriteString(h, "piql-vet lint cache v1\n")
	io.WriteString(h, salt+"\n")
	io.WriteString(h, sp.ImportPath+"\n")
	for _, file := range sp.Files {
		data, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %d\n", filepath.Base(file), len(data))
		h.Write(data)
	}
	for _, dep := range sp.LocalImports {
		fmt.Fprintf(h, "dep %s %d\n", dep, len(factBytes[dep]))
		h.Write(factBytes[dep])
	}
	return filepath.Join(cacheDir, fmt.Sprintf("%02x", h.Sum(nil))+".json"), nil
}

// readCacheEntry replays one package's entry. A missing entry is a
// plain miss; a corrupt entry under a valid key is reported and
// recomputed, never trusted.
func readCacheEntry(entryPath, importPath string, stderr io.Writer) (cacheEntry, *lint.PackageFacts, bool) {
	var ce cacheEntry
	data, err := os.ReadFile(entryPath)
	if err != nil {
		return ce, nil, false
	}
	if json.Unmarshal(data, &ce) == nil {
		if facts, err := lint.DecodeFacts(ce.Facts); err == nil {
			return ce, facts, true
		}
	}
	fmt.Fprintf(stderr, "piql-vet: discarding corrupt cache entry for %s\n", importPath)
	return ce, nil, false
}

// runDataflowDump is the -dataflow debug printer: it typechecks the
// module and prints the def-use chains of every function matching the
// given name (bare, method-key, or package-qualified).
func runDataflowDump(start, name string, stdout, stderr io.Writer) int {
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
	found := false
	for _, sp := range scan {
		unit, err := loader.LoadDir(sp.Dir, sp.ImportPath)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		if dump, ok := lint.DumpDefUse(unit, name); ok {
			found = true
			io.WriteString(stdout, dump)
		}
	}
	if !found {
		fmt.Fprintf(stderr, "piql-vet: -dataflow: no function matches %q (try a bare name, \"(*Type).Method\", or \"pkg.Func\")\n", name)
		return 1
	}
	return 0
}

// changedPackages maps `git diff --name-only` against the merge-base
// with base (plus untracked files) to the module packages whose
// directories contain a changed file, expanded to their module-local
// dependents — an edit to a package invalidates every package whose
// analysis could see it through facts.
func changedPackages(start, base string, scan []*lint.ScannedPackage) (map[string]bool, error) {
	topOut, err := exec.Command("git", "-C", start, "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return nil, fmt.Errorf("-changed needs a git checkout: %v", err)
	}
	top := strings.TrimSpace(string(topOut))
	ref := base
	if out, err := exec.Command("git", "-C", start, "merge-base", "HEAD", base).Output(); err == nil {
		if mb := strings.TrimSpace(string(out)); mb != "" {
			ref = mb
		}
	}
	diff, err := exec.Command("git", "-C", start, "diff", "--name-only", ref, "--").Output()
	if err != nil {
		return nil, fmt.Errorf("git diff --name-only %s: %v", ref, err)
	}
	untracked, _ := exec.Command("git", "-C", start, "ls-files", "--others", "--exclude-standard").Output()
	dirs := map[string]bool{}
	for _, name := range strings.Split(string(diff)+"\n"+string(untracked), "\n") {
		if name = strings.TrimSpace(name); name != "" {
			dirs[filepath.Dir(filepath.Join(top, filepath.FromSlash(name)))] = true
		}
	}
	changed := map[string]bool{}
	for _, sp := range scan {
		if dirs[filepath.Clean(sp.Dir)] {
			changed[sp.ImportPath] = true
		}
	}
	// Dependents closure over the module-local import edges.
	for grew := true; grew; {
		grew = false
		for _, sp := range scan {
			if changed[sp.ImportPath] {
				continue
			}
			for _, dep := range sp.LocalImports {
				if changed[dep] {
					changed[sp.ImportPath] = true
					grew = true
					break
				}
			}
		}
	}
	return changed, nil
}

// filterAffected drops diagnostics for packages outside the -changed
// set; a nil set keeps everything.
func filterAffected(all map[string][]lint.Diagnostic, affected map[string]bool) {
	if affected == nil {
		return
	}
	for pkg := range all {
		if !affected[pkg] {
			delete(all, pkg)
		}
	}
}

// toolSalt keys the lint cache to this build of the tool: the hash of
// the executable itself, so a rebuild that could change any verdict
// invalidates every entry.
func toolSalt() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown-tool"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown-tool"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%02x", sum)
}

// emit prints diagnostics in the chosen format; exit status 2 when any
// exist. JSON mode always writes the payload — an empty object on a
// clean run — so redirecting it produces a findings artifact either
// way; a non-nil timing adds it as the payload's "timing" entry. Text
// mode prints diagnostics only.
func emit(byPkg map[string][]lint.Diagnostic, jsonOut bool, timing *runTiming, stdout, stderr io.Writer) int {
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
		if timing != nil {
			payload["timing"] = timing
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
