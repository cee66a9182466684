package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix: a field that is accessed atomically anywhere in the
// module must never be read or written plainly.
//
// Three rules, in increasing order of reach:
//
//  1. A field of a sync/atomic type (atomic.Pointer[T], atomic.Int64,
//     atomic.Value, …) may only be evaluated as the receiver of one of
//     its atomic methods or have its address taken. Copying the value
//     (`r := c.routing`), assigning over it, or passing it by value
//     silently forks the atomic cell — two goroutines end up
//     publishing through different cells.
//
//  2. A plain-typed field that some site touches with a sync/atomic
//     function call (atomic.AddUint64(&s.n, 1)) is an atomic field
//     everywhere: a plain `s.n++` or `x := s.n` races with the atomic
//     sites and can tear. The declaring package exports the field in
//     the AtomicFields fact, so a plain access in a *different*
//     package is flagged too — type information cannot carry this
//     property, only the fact can.
//
//  3. A value obtained from an atomic Load is a published snapshot:
//     writing through it (directly, via locals, or via a helper's
//     returned Load — the AtomicResults fact) mutates state other
//     readers believe immutable. Copy-on-write is the contract: build
//     a new value and Store it. Provenance is tracked by the dataflow
//     core (dataflow.go) and stops at leaf data (ints, byte slices)
//     and at sub-objects guarded by their own mutex, whose lock — not
//     the atomic publication — governs their mutation.
//
// The targets in this tree: Cluster.routing, the node lease tables,
// and Engine's admission-policy and catalog pointers.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "atomically-accessed fields must never be read or written plainly, and Load()ed values are immutable",
	Run:  runAtomicMix,
}

// isAtomicType reports whether t is declared in sync/atomic
// (atomic.Int64, atomic.Pointer[T], …).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// fieldIDOfSelection renders the canonical ID of a selected struct
// field — "<pkg>.<Struct>.<field>" — matching the lock-ID convention,
// so kvstore.Cluster.routing is one name everywhere. Returns the field
// object too.
func fieldIDOfSelection(info *types.Info, sel *ast.SelectorExpr) (string, *types.Var, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil, false
	}
	v, _ := s.Obj().(*types.Var)
	if v == nil || v.Pkg() == nil {
		return "", nil, false
	}
	t := s.Recv()
	for {
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			continue
		}
		break
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", nil, false
	}
	return v.Pkg().Name() + "." + named.Obj().Name() + "." + v.Name(), v, true
}

// isAtomicFunc reports whether fn is a package-level function of
// sync/atomic (atomic.AddUint64, atomic.LoadInt64, …) — the
// function-style API over plain-typed words.
func isAtomicFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// atomicPrepass collects the package's atomic fields, the sanctioned
// &x.f sites inside sync/atomic calls, each function's AtomicResults
// summary, and the plain-write-through-Load findings. Runs during
// buildInterproc so Facts() can export the results.
func (ip *Interproc) atomicPrepass(files []*ast.File) {
	ip.atomicFields = map[string]bool{}
	ip.atomicSanctioned = map[ast.Node]bool{}
	pkgName := ip.pkg.Name()
	// Rule-1 fields: sync/atomic-typed struct fields declared here.
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, _ := ip.info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					if isAtomicType(fld.Type()) {
						ip.atomicFields[pkgName+"."+ts.Name.Name+"."+fld.Name()] = true
					}
				}
			}
		}
	}
	// Rule-2 fields: &x.f arguments of sync/atomic function calls. The
	// argument sites themselves are sanctioned.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFunc(calleeOf(ip.info, call)) {
				return true
			}
			for _, a := range call.Args {
				u, ok := ast.Unparen(a).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if id, _, ok := fieldIDOfSelection(ip.info, sel); ok {
					ip.atomicFields[id] = true
					ip.atomicSanctioned[sel] = true
				}
			}
			return true
		})
	}
	// Rule 3: per-function Load provenance. Two rounds: the first fills
	// every function's AtomicResults summary (so a same-package helper
	// seen before its caller still seeds the caller's taint in round
	// two), the second collects the plain-write findings with the
	// complete summaries. Helper-of-helper chains deeper than one
	// in-package level are not chased — cross-package chains are, via
	// the facts.
	for _, fi := range ip.funcs {
		if fi.pseudo || fi.decl == nil || fi.decl.Body == nil {
			continue
		}
		fi.atomicResults = map[string]bool{}
		ft := taintFunc(ip.info, fi.decl.Body, &atomicProv{ip: ip})
		funcReturns(fi.decl.Body, func(r *ast.ReturnStmt) {
			for _, res := range r.Results {
				if tag, ok := ft.exprTag(res); ok {
					fi.atomicResults[tag.id] = true
				}
			}
		})
	}
	for _, fi := range ip.funcs {
		if fi.pseudo || fi.decl == nil || fi.decl.Body == nil {
			continue
		}
		ft := taintFunc(ip.info, fi.decl.Body, &atomicProv{ip: ip})
		ip.atomicWriteFindings(fi, ft)
	}
}

// atomicProv is the provenance policy for atomic Loads: seeds at
// .Load() calls on atomic fields and at calls to helpers whose
// AtomicResults fact says they return a loaded value.
type atomicProv struct {
	ip *Interproc
}

func (p *atomicProv) seed(e ast.Expr) (provTag, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return provTag{}, false
	}
	fn := calleeOf(p.ip.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Name() != "Load" {
		return provTag{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return provTag{}, false // atomic.LoadT(&x) reads a word, not a snapshot
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return provTag{}, false
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return provTag{}, false
	}
	id, _, ok := fieldIDOfSelection(p.ip.info, fieldSel)
	if !ok {
		return provTag{}, false
	}
	return provTag{id: id, what: "loaded from atomic field " + id, pos: call.Pos()}, true
}

func (p *atomicProv) derive(tag provTag, t types.Type) (provTag, bool) {
	if leafValueType(t) || ownLockGuarded(t) {
		return tag, false
	}
	return tag, true
}

func (p *atomicProv) call(call *ast.CallExpr, fn *types.Func, recvTag, argTag *provTag) (provTag, bool) {
	if fn != nil && fn.Pkg() != nil && p.ip.moduleLocal(fn.Pkg().Path()) {
		// A helper that returns a loaded value: same-package via the
		// prepass summary, cross-package via the AtomicResults fact.
		if fi, ok := p.ip.byObj[fn]; ok && fi.atomicResults != nil {
			for id := range fi.atomicResults {
				return provTag{id: id, what: "loaded from atomic field " + id + " via " + fn.Name(), pos: call.Pos()}, true
			}
		}
		if fn.Pkg().Path() != pkgPathOf(p.ip.pkg) {
			if fact, ok := p.ip.unit.Facts.Func(fn.Pkg().Path(), funcKey(fn)); ok && len(fact.AtomicResults) > 0 {
				return provTag{
					id:   fact.AtomicResults[0],
					what: "loaded from atomic field " + fact.AtomicResults[0] + " via " + funcKey(fn) + " (per fact from " + fn.Pkg().Path() + ")",
					pos:  call.Pos(),
				}, true
			}
		}
	}
	// A method on a loaded value returns derived state (the engine
	// filters through derive per result type).
	if recvTag != nil {
		return *recvTag, true
	}
	return provTag{}, false
}

// atomicWriteFindings records rule-3 violations for one function:
// assignments and inc/dec through a projection of a loaded value, and
// appends to a slice projected from one (append may write the shared
// backing array in place). A three-index slice caps the capacity, so
// appending to it copies and is not a write; `p.x = append(p.x, …)` is
// reported once, as the assignment.
func (ip *Interproc) atomicWriteFindings(fi *funcInfo, ft *funcTaint) {
	report := func(pos token.Pos, what string, tag provTag) {
		ip.atomicFindings = append(ip.atomicFindings, provFinding{
			pos: pos,
			msg: what + " a value " + tag.what +
				" (Load at " + ip.shortPos(tag.pos) + "): atomically-published state is copy-on-write — build a new value and Store it",
		})
	}
	reported := map[ast.Expr]bool{} // right-hand sides of reported assignments
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				root, projected := projectionRoot(lhs)
				if !projected || !sharedMemoryWrite(ip.info, lhs) {
					continue
				}
				if tag, ok := ft.exprTag(root); ok {
					report(s.Pos(), "plain write through", tag)
					for _, rhs := range s.Rhs {
						reported[rhs] = true
					}
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(s.Fun).(*ast.Ident)
			if !ok || len(s.Args) == 0 || reported[s] {
				return true
			}
			if b, ok := ip.info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			if full, ok := ast.Unparen(s.Args[0]).(*ast.SliceExpr); ok && full.Slice3 {
				return true
			}
			if root, projected := projectionRoot(s.Args[0]); projected {
				if tag, ok := ft.exprTag(root); ok {
					report(s.Pos(), "append to a slice of", tag)
				}
			}
		case *ast.IncDecStmt:
			root, projected := projectionRoot(s.X)
			if !projected || !sharedMemoryWrite(ip.info, s.X) {
				return true
			}
			if tag, ok := ft.exprTag(root); ok {
				report(s.Pos(), "plain write through", tag)
			}
		}
		return true
	})
}

// projectionRoot strips selectors, indexes, slices, derefs, and parens
// off an lvalue, returning the base expression and whether at least
// one projection was stripped (a bare ident is a rebinding, not a
// write into the object).
func projectionRoot(e ast.Expr) (ast.Expr, bool) {
	projected := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e, projected = x.X, true
		case *ast.IndexExpr:
			e, projected = x.X, true
		case *ast.SliceExpr:
			e, projected = x.X, true
		case *ast.StarExpr:
			e, projected = x.X, true
		default:
			return e, projected
		}
	}
}

// ownLockGuarded reports whether t (or the struct it points to)
// carries its own sync.Mutex/RWMutex field: mutation of such a
// sub-object is governed by its lock, so atomic/snapshot provenance
// stops there (field-granularity, no alias analysis).
func ownLockGuarded(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if named, ok := st.Field(i).Type().(*types.Named); ok {
			if obj := named.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex":
					return true
				}
			}
		}
	}
	return false
}

func runAtomicMix(p *Pass) {
	if p.ip == nil {
		return
	}
	ip := p.ip
	// Merged atomic-field set: this package's plus every dependency's
	// (fact), with the exporting path kept for the cross-package
	// citation.
	factFields := p.unit.Facts.AtomicFields()
	for _, f := range p.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			id, fld, ok := fieldIDOfSelection(p.unit.Info, sel)
			if !ok {
				return
			}
			local := ip.atomicFields[id]
			factPath, fromFact := factFields[id]
			if !local && !fromFact {
				return
			}
			if isAtomicType(fld.Type()) {
				checkTypedAtomicUse(p, sel, id, stack)
				return
			}
			if ip.atomicSanctioned[sel] {
				return
			}
			cite := ""
			if !local && fromFact {
				cite = " (per fact from " + factPath + ")"
			}
			p.Reportf(sel.Pos(),
				"plain %s of field %s, which is accessed with sync/atomic operations%s; mixed plain/atomic access tears",
				accessKind(sel, stack), id, cite)
		})
	}
	for _, fdg := range ip.atomicFindings {
		p.Reportf(fdg.pos, "%s", fdg.msg)
	}
}

// accessKind classifies a flagged selector as a read or a write for
// the diagnostic.
func accessKind(sel *ast.SelectorExpr, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if containsNode(lhs, sel) {
					return "write"
				}
			}
			return "read"
		case *ast.IncDecStmt:
			return "write"
		case ast.Stmt:
			return "read"
		}
	}
	return "read"
}

// containsNode reports whether target appears in the tree rooted at e.
func containsNode(e ast.Expr, target ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// checkTypedAtomicUse enforces rule 1: a sync/atomic-typed field may
// only appear as the receiver of an atomic method call or under &.
func checkTypedAtomicUse(p *Pass, sel *ast.SelectorExpr, id string, stack []ast.Node) {
	if len(stack) > 0 {
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			// c.routing.Load — the method access itself.
			if parent.X == sel {
				return
			}
		case *ast.UnaryExpr:
			// &c.routing — an alias for method calls; a plain write
			// through the pointer would still need a Store.
			if parent.Op == token.AND {
				return
			}
		}
	}
	kind := accessKind(sel, stack)
	verb := "copies"
	if kind == "write" {
		verb = "overwrites"
	}
	p.Reportf(sel.Pos(),
		"plain %s of atomic field %s %s the atomic cell; every access must go through its Load/Store/CAS methods",
		kind, id, verb)
}
