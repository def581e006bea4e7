package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// The depsaudit analyzer machine-checks the obligations table in
// internal/verify — the rows that tell schedverifyd which policy
// components each obligation's cache key must cover. The rows used to be
// "audited against the checker implementations, not guessed" by hand;
// this pass re-derives them from the code on every run:
//
//  1. find the package-level `var obligations` table, a slice or array
//     literal of structs, and read each row's `id` (a constant), `check`
//     (a reference to a function or method: the row's per-state check)
//     and `deps` (a literal of constant components);
//  2. walk the call graph from each row's check, across packages (the
//     sched helpers), down to references of the policy interface
//     methods: Load→load, CanSteal→filter, Choose→choose,
//     StealCount→steal, PickTask→steal on Policy/TaskPicker, and
//     RescueTarget→rescue on Rescuer — method calls, method values and
//     functions passed as values alike;
//  3. fail on any disagreement between the reached set and the row.
//
// An undeclared-but-reached component means cache keys miss edits that
// can change the verdict (stale memoized results — unsound); a
// declared-but-unreached component means spurious invalidation (sound
// but wasteful). Both directions break, in both directions the fix is
// a reviewed edit: either the row or the check, or a
// //schedlint:allow depsaudit directive on the row when the reach is
// intentional (choice-independence calls Choose and discards it). A
// row the pass cannot read — a check that is not a function reference,
// a non-constant ID or component — is reported, never skipped: a check
// the audit cannot follow is a check nobody audits.
//
// One reach is legal without a row entry: Load. DSL component hashing
// is closed over load references (dsl.ComponentForm embeds the load
// clause into every component form that mentions `x.load`), so a
// check that observes load only through another declared component
// is already covered — the row needs CompLoad only when the check
// calls p.Load directly (potential-decrease). Concretely: reaching
// Load is accepted iff the row declares at least one closure component
// (filter/choose/steal/rescue), and declaring CompLoad requires Load
// to actually be reached.

// DepsAudit is the obligation-dependency analyzer: it checks each row of
// the obligations table against the policy components its check's call
// graph actually reaches. It no-ops on packages without that table.
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
	for _, row := range findTable(pass) {
		declared := map[string]bool{}
		for _, c := range row.components {
			declared[c] = true
		}
		reached := reachComponents(pass, row.check)
		closure := declared["filter"] || declared["choose"] || declared["steal"] || declared["rescue"]
		for _, c := range knownComponents {
			path, isReached := reached[c]
			switch {
			case isReached && !declared[c]:
				if c == "load" && closure {
					continue // load closure: a declared component's form embeds the load clause
				}
				pass.Reportf(row.pos,
					"check for %q reaches policy component %q (via %s) but its row does not declare it: memoized results would survive edits that can change the verdict", row.id, c, path)
			case !isReached && declared[c]:
				pass.Reportf(row.pos,
					"row for %q declares component %q but its check never reaches it: edits there would invalidate cached results for nothing", row.id, c)
			}
		}
	}
	return nil
}

// tableRow is one readable row of the obligations table.
type tableRow struct {
	id         string
	check      *types.Func
	components []string
	pos        token.Pos // the row's deps
}

// findTable locates the package-level `var obligations = …{…}` table
// and reads its rows, keyed or positional. A row it cannot read is
// reported and left out.
func findTable(pass *Pass) []tableRow {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if name.Name != "obligations" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					var st *types.Struct
					switch t := info.TypeOf(lit).Underlying().(type) {
					case *types.Slice:
						st, _ = t.Elem().Underlying().(*types.Struct)
					case *types.Array:
						st, _ = t.Elem().Underlying().(*types.Struct)
					}
					if st == nil {
						continue
					}
					var rows []tableRow
					for _, elt := range lit.Elts {
						if row, ok := readRow(pass, st, elt); ok {
							rows = append(rows, row)
						}
					}
					return rows
				}
			}
		}
	}
	return nil
}

// readRow reads one element of the table, reporting what makes it
// unreadable.
func readRow(pass *Pass, st *types.Struct, elt ast.Expr) (tableRow, bool) {
	info := pass.Pkg.Info
	lit, ok := elt.(*ast.CompositeLit)
	if !ok {
		pass.Reportf(elt.Pos(), "obligations row is not a struct literal; the audit cannot read it")
		return tableRow{}, false
	}
	fields := map[string]ast.Expr{}
	for i, e := range lit.Elts {
		if kv, keyed := e.(*ast.KeyValueExpr); keyed {
			fields[kv.Key.(*ast.Ident).Name] = kv.Value
		} else if i < st.NumFields() {
			fields[st.Field(i).Name()] = e
		}
	}
	var row tableRow
	row.id, ok = constString(info, fields["id"])
	if !ok {
		pass.Reportf(lit.Pos(), "obligations row has no constant id; the audit cannot read it")
		return tableRow{}, false
	}
	row.check = funcRef(info, fields["check"])
	if row.check == nil {
		pass.Reportf(lit.Pos(), "obligations row %q: check is not a function reference; the audit cannot follow it", row.id)
		return tableRow{}, false
	}
	deps, ok := fields["deps"].(*ast.CompositeLit)
	if !ok {
		pass.Reportf(lit.Pos(), "obligations row %q: deps is not a component list literal; the audit cannot read it", row.id)
		return tableRow{}, false
	}
	row.pos = deps.Pos()
	for _, ce := range deps.Elts {
		comp, ok := constString(info, ce)
		if !ok {
			pass.Reportf(ce.Pos(), "obligations row %q holds a non-constant component; the audit cannot read it", row.id)
			return tableRow{}, false
		}
		if !isKnownComponent(comp) {
			pass.Reportf(ce.Pos(), "obligations row %q names unknown component %q (known: %v)", row.id, comp, knownComponents)
			return tableRow{}, false
		}
		row.components = append(row.components, comp)
	}
	return row, true
}

// funcRef resolves e to the function or method it names — an
// identifier, a qualified identifier or a method expression — or nil.
func funcRef(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[x.Sel].(*types.Func)
		return f
	}
	return nil
}

// reachComponents walks the call graph from the entry function and
// returns each reached policy component with one witness path.
func reachComponents(pass *Pass, entry *types.Func) map[string]string {
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
	push(entry, entry.Name())
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
