package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// The depsaudit analyzer machine-checks the obligationDeps table in
// internal/verify — the row set that tells schedverifyd which policy
// components each obligation's cache key must cover. The table used to
// be "audited against the checker implementations, not guessed" by
// hand; this pass re-derives it from the code on every run:
//
//  1. find the package-level `var obligationDeps map[K][]C` literal and
//     read its rows (obligation -> declared component values);
//  2. find the dispatch switches on K (verify.newStateCheck) and map
//     each obligation constant to the checker functions its case body
//     references — including successor functions passed as values;
//  3. walk the call graph from those entries, across packages (the
//     sched helpers), down to references of the policy interface
//     methods: Load→load, CanSteal→filter, Choose→choose,
//     StealCount→steal, PickTask→steal on Policy/TaskPicker, and
//     RescueTarget→rescue on Rescuer — method calls and method values
//     alike;
//  4. fail on any disagreement between the reached set and the row.
//
// An undeclared-but-reached component means cache keys miss edits that
// can change the verdict (stale memoized results — unsound); a
// declared-but-unreached component means spurious invalidation (sound
// but wasteful). Both directions break, in both directions the fix is
// a reviewed edit: either the row or the checker, or a
// //schedlint:allow depsaudit directive on the row when the reach is
// intentional (choice-independence calls Choose and discards it).
//
// One reach is legal without a row entry: Load. DSL component hashing
// is closed over load references (dsl.ComponentForm embeds the load
// clause into every component form that mentions `x.load`), so a
// checker that observes load only through another declared component
// is already covered — the row needs CompLoad only when the checker
// calls p.Load directly (potential-decrease). Concretely: reaching
// Load is accepted iff the row declares at least one closure component
// (filter/choose/steal/rescue), and declaring CompLoad requires Load
// to actually be reached.

// DepsAudit is the obligation-dependency analyzer: it checks the
// obligationDeps rows against the policy components the checkers' call
// graphs actually reach. It no-ops on packages without an
// obligationDeps table.
var DepsAudit = &Analyzer{
	Name: "depsaudit",
	Run:  runDepsAudit,
}

// policyMethodComponents maps policy interface methods to the
// component their canonical form is hashed under (see
// verify.PolicyComponent and dsl.ComponentForm).
var policyMethodComponents = map[string]string{
	"Load":         "load",
	"CanSteal":     "filter",
	"Choose":       "choose",
	"StealCount":   "steal",
	"PickTask":     "steal",
	"RescueTarget": "rescue",
}

// policyInterfaces names the interfaces whose methods count:
// sched.Policy and its extension interfaces.
var policyInterfaces = map[string]bool{
	"Policy": true, "Rescuer": true, "TaskPicker": true,
}

// knownComponents is the component vocabulary, in the canonical order
// of verify's CompLoad … CompRescue declarations.
var knownComponents = []string{"load", "filter", "choose", "steal", "rescue"}

func runDepsAudit(pass *Pass) error {
	table := findDepsTable(pass)
	if table == nil {
		return nil
	}
	dispatch := findDispatch(pass, table.keyType)

	ids := make([]string, 0, len(table.rows)+len(dispatch))
	seen := map[string]bool{}
	for id := range table.rows {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for id := range dispatch {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	for _, id := range ids {
		row, hasRow := table.rows[id]
		entry, hasDispatch := dispatch[id]
		switch {
		case !hasRow:
			pass.Reportf(entry.pos,
				"obligation %q is dispatched to a checker but has no obligationDeps row: the memoizer cannot key its results", id)
			continue
		case !hasDispatch:
			pass.Reportf(row.pos,
				"obligationDeps row %q matches no checker dispatch case: stale row?", id)
			continue
		}
		declared := map[string]bool{}
		for _, c := range row.components {
			declared[c] = true
		}
		reached := reachComponents(pass, entry.funcs)
		closure := declared["filter"] || declared["choose"] || declared["steal"] || declared["rescue"]
		for _, c := range knownComponents {
			path, isReached := reached[c]
			switch {
			case isReached && !declared[c]:
				if c == "load" && closure {
					continue // load closure: a declared component's form embeds the load clause
				}
				pass.Reportf(row.pos,
					"checker for %q reaches policy component %q (via %s) but its obligationDeps row does not declare it: memoized results would survive edits that can change the verdict", id, c, path)
			case !isReached && declared[c]:
				pass.Reportf(row.pos,
					"obligationDeps row for %q declares component %q but the checker never reaches it: edits there would invalidate cached results for nothing", id, c)
			}
		}
	}
	return nil
}

// depsTable is the parsed obligationDeps literal.
type depsTable struct {
	keyType types.Type
	rows    map[string]depsRow
}

type depsRow struct {
	components []string
	pos        token.Pos
}

// findDepsTable locates a package-level `var obligationDeps = map…{…}`
// and parses its rows. Non-constant keys or components are reported and
// skipped.
func findDepsTable(pass *Pass) *depsTable {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "obligationDeps" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					mt, ok := info.TypeOf(lit).Underlying().(*types.Map)
					if !ok {
						continue
					}
					table := &depsTable{keyType: mt.Key(), rows: map[string]depsRow{}}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := constString(info, kv.Key)
						if !ok {
							pass.Reportf(kv.Key.Pos(), "obligationDeps key is not a constant; the audit cannot read this row")
							continue
						}
						row := depsRow{pos: kv.Key.Pos()}
						val, ok := kv.Value.(*ast.CompositeLit)
						if !ok {
							pass.Reportf(kv.Value.Pos(), "obligationDeps row %q is not a component list literal; the audit cannot read it", key)
							continue
						}
						bad := false
						for _, ce := range val.Elts {
							comp, ok := constString(info, ce)
							if !ok {
								pass.Reportf(ce.Pos(), "obligationDeps row %q holds a non-constant component; the audit cannot read it", key)
								bad = true
								break
							}
							if !isKnownComponent(comp) {
								pass.Reportf(ce.Pos(), "obligationDeps row %q names unknown component %q (known: %v)", key, comp, knownComponents)
								bad = true
								break
							}
							row.components = append(row.components, comp)
						}
						if !bad {
							table.rows[key] = row
						}
					}
					return table
				}
			}
		}
	}
	return nil
}

// dispatchEntry is one obligation's checker entry points.
type dispatchEntry struct {
	funcs []*types.Func
	pos   token.Pos
}

// findDispatch scans every switch on the deps-map key type and maps
// each case constant to the functions the case body references — the
// checker plus any successor/helper functions passed as values.
func findDispatch(pass *Pass, keyType types.Type) map[string]*dispatchEntry {
	info := pass.Pkg.Info
	out := map[string]*dispatchEntry{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := info.TypeOf(sw.Tag)
			if tagType == nil || !types.Identical(tagType, keyType) {
				return true
			}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok || len(cc.List) == 0 {
					continue // default clause
				}
				funcs := referencedFuncs(info, cc.Body)
				for _, caseExpr := range cc.List {
					id, ok := constString(info, caseExpr)
					if !ok {
						continue
					}
					e := out[id]
					if e == nil {
						e = &dispatchEntry{pos: caseExpr.Pos()}
						out[id] = e
					}
					e.funcs = append(e.funcs, funcs...)
				}
			}
			return true
		})
	}
	return out
}

// reachComponents walks the call graph from the entry functions and
// returns each reached policy component with one witness path.
func reachComponents(pass *Pass, entries []*types.Func) map[string]string {
	reached := map[string]string{}
	visited := map[string]bool{}
	type item struct {
		fn   *types.Func
		path string
	}
	var queue []item
	push := func(f *types.Func, path string) {
		key := f.FullName()
		if visited[key] {
			return
		}
		visited[key] = true
		queue = append(queue, item{f, path})
	}
	for _, f := range entries {
		if comp, iface, ok := policyComponentOf(f); ok {
			if _, dup := reached[comp]; !dup {
				reached[comp] = iface + "." + f.Name()
			}
			continue
		}
		push(f, f.Name())
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		decl, dpkg := pass.Prog.FuncDecl(cur.fn)
		if decl == nil {
			continue // no source: standard library or func-typed value
		}
		for _, ref := range referencedFuncs(dpkg.Info, []ast.Stmt{decl.Body}) {
			if comp, iface, ok := policyComponentOf(ref); ok {
				if _, dup := reached[comp]; !dup {
					reached[comp] = cur.path + " -> " + iface + "." + ref.Name()
				}
				continue
			}
			push(ref, cur.path+" -> "+ref.Name())
		}
	}
	return reached
}

// referencedFuncs collects every function object referenced in the
// statements — calls, method calls, and bare references passed as
// values — in source order, deduplicated.
func referencedFuncs(info *types.Info, stmts []ast.Stmt) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, stmt := range stmts {
		ast.Inspect(stmt, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := info.Uses[id].(*types.Func)
			if !ok || seen[f] {
				return true
			}
			seen[f] = true
			out = append(out, f)
			return true
		})
	}
	return out
}

// policyComponentOf maps an interface-method reference to its policy
// component; ok is false for anything that is not a policy interface
// method.
func policyComponentOf(f *types.Func) (comp, iface string, ok bool) {
	recv := sigRecv(f)
	if recv == nil {
		return "", "", false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return "", "", false
	}
	name := named.Obj().Name()
	if !policyInterfaces[name] {
		return "", "", false
	}
	comp, ok = policyMethodComponents[f.Name()]
	return comp, name, ok
}

func isKnownComponent(c string) bool {
	for _, k := range knownComponents {
		if k == c {
			return true
		}
	}
	return false
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
