package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

func TestAnalyzersFor(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		{"repro/internal/verify", []string{"depsaudit", "determinism"}},
		{"repro/internal/service/store", []string{"depsaudit", "determinism"}},
		{"repro/internal/engine", []string{"depsaudit", "atomicsdiscipline"}},
		{"repro/internal/sched", []string{"depsaudit"}},
		{"repro/internal/simx", []string{"depsaudit"}}, // segment-aware: not internal/sim
		{"repro/cmd/schedverify", []string{"depsaudit"}},
	}
	for _, c := range cases {
		got := lint.AnalyzersFor(c.path)
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if strings.Join(names, ",") != strings.Join(c.want, ",") {
			t.Errorf("AnalyzersFor(%q) = %v, want %v", c.path, names, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range lint.Analyzers() {
		got, ok := lint.ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := lint.ByName("nosuchpass"); ok {
		t.Error("ByName accepted an unknown pass")
	}
}

// TestLoadRepo loads the real module and sanity-checks the program
// index: target packages resolve, and a cross-package function
// declaration is reachable by its types.Func — the property depsaudit's
// call-graph walk rests on.
func TestLoadRepo(t *testing.T) {
	_, targets, err := lint.Load("../..", "./internal/verify", "./internal/sched")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(targets) != 2 {
		t.Fatalf("got %d targets, want 2", len(targets))
	}
	byPath := map[string]*lint.Package{}
	for _, pkg := range targets {
		byPath[pkg.Path] = pkg
	}
	for _, want := range []string{"repro/internal/verify", "repro/internal/sched"} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	verifyPkg := byPath["repro/internal/verify"]
	if verifyPkg == nil || verifyPkg.Info == nil || verifyPkg.Types == nil || len(verifyPkg.Files) == 0 {
		t.Fatal("verify package loaded without syntax or type info")
	}
}

// TestDirectiveHygiene checks that malformed and unknown-pass
// directives are themselves diagnostics, and that the schedlint
// pseudo-pass can suppress them.
func TestDirectiveHygiene(t *testing.T) {
	prog, targets, err := lint.Load(".", "./testdata/src/directives")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.RunPackage(prog, targets[0], nil)
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "malformed directive") {
		t.Errorf("first diagnostic = %v, want malformed-directive", diags[0])
	}
	if !strings.Contains(diags[1].Message, `unknown pass "nosuchpass"`) {
		t.Errorf("second diagnostic = %v, want unknown-pass", diags[1])
	}
	for _, d := range diags {
		if d.Pass != "schedlint" {
			t.Errorf("hygiene diagnostic carries pass %q, want schedlint", d.Pass)
		}
	}
}

// TestRepoClean is the acceptance gate in test form: the suite runs
// clean over the whole module, with every remaining wall-clock or
// map-order use annotated.
func TestRepoClean(t *testing.T) {
	prog, targets := loadRepo(t)
	for _, pkg := range targets {
		diags, err := lint.RunPackage(prog, pkg, lint.AnalyzersFor(pkg.Path))
		if err != nil {
			t.Fatalf("RunPackage(%s): %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

var repo struct {
	once    sync.Once
	prog    *lint.Program
	targets []*lint.Package
	err     error
}

// loadRepo loads and type-checks the module's non-test code once for
// every test in this file that looks at the whole tree.
func loadRepo(t *testing.T) (*lint.Program, []*lint.Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	repo.once.Do(func() {
		repo.prog, repo.targets, repo.err = lint.Load("../..", "./...")
	})
	if repo.err != nil {
		t.Fatalf("Load: %v", repo.err)
	}
	return repo.prog, repo.targets
}

// deadExportExemptions names the exported objects of the root and
// internal packages that stay without a non-test reference, keyed as exportKey keys them,
// each with the reason it stays. Keep it to five entries at most: an
// export that only tests use belongs in those tests' files.
var deadExportExemptions = map[string]string{
	"(*repro/internal/metrics.Histogram).Min": "TestGoldenTraces hashes every histogram's min " +
		"and loadgen's tests bound the fastest job by it; the pinned trace hashes must not move",
	"(*repro/internal/service/faultinject.Set).Fired": "the chaos tests of internal/service read it " +
		"to prove an injected fault fired, so it cannot live in one package's test files",
	"(*repro/internal/sim.Simulator).Machine": "the one window onto a simulated machine: " +
		"TestGoldenTraces hashes the machine a run leaves, and internal/workload's tests inspect it",
}

// TestNoDeadInternalExports fails on every exported func, type, var,
// const, method or interface method of the root optsched package or of
// a repro/internal/... package that no non-test file of the module
// references: the root exports only what a command or the benchmark
// calls. A reference from inside the object's own declaration
// (recursion, a receiver naming its type) does not count. A method that
// satisfies an interface — one declared in the module or in a package
// the module imports — is exempt, since it may be called through that
// interface.
func TestNoDeadInternalExports(t *testing.T) {
	prog, pkgs := loadRepo(t)
	if len(deadExportExemptions) > 5 {
		t.Errorf("%d exemptions; at most five may stay", len(deadExportExemptions))
	}

	// Every exported object of a checked package, with the extent of its
	// declaration.
	type decl struct {
		pos      token.Position
		from, to token.Pos
	}
	exported := make(map[string]decl)
	for _, pkg := range pkgs {
		declare := func(name *ast.Ident, extent ast.Node) {
			if key := exportKey(pkg.Info.Defs[name]); key != "" {
				exported[key] = decl{prog.Fset.Position(name.Pos()), extent.Pos(), extent.End()}
			}
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declare(fd.Name, fd)
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
						if iface, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range iface.Methods.List {
								for _, name := range m.Names {
									declare(name, m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							declare(name, s)
						}
					}
				}
			}
		}
	}

	// Every reference from non-test code, minus self-references.
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		receivers := make(map[*ast.Ident]bool)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			key := exportKey(obj)
			if key == "" || receivers[id] {
				continue
			}
			if d, ok := exported[key]; ok && d.from <= id.Pos() && id.Pos() < d.to {
				continue
			}
			used[key] = true
		}
	}

	// Methods that satisfy an interface. Each package is checked against
	// the interfaces it can see, in its own type universe: its source
	// objects and the export-data objects of everything it imports.
	for _, pkg := range pkgs {
		for _, key := range interfaceMethods(pkg) {
			used[key] = true
		}
	}

	var dead []string
	for key, d := range exported {
		if used[key] {
			continue
		}
		if _, ok := deadExportExemptions[key]; ok {
			continue
		}
		dead = append(dead, d.pos.String()+": "+key)
	}
	for key := range deadExportExemptions {
		if _, ok := exported[key]; !ok {
			t.Errorf("exemption %s names no exported object", key)
		} else if used[key] {
			t.Errorf("exemption %s is referenced from non-test code; drop it", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test reference", d)
	}
}

// writeOnlyExemptions names the fields of internal structs that no
// non-test code reads by selection, as fieldName names them, each with
// the reason it stays. Keep it to five entries at most: a field nothing
// reads is state nothing needs.
var writeOnlyExemptions = map[string]string{
	"sim.Stats.Preemptions": "schedsim prints a run's Stats with %v, and TestGoldenTraces " +
		"hashes every non-pointer Stats field",
	"sim.Stats.IdleCoreTicks": "schedsim prints a run's Stats with %v, and TestGoldenTraces " +
		"hashes every non-pointer Stats field",
	"lint.Package.Types": "the interface walk of TestNoDeadInternalExports reads each " +
		"loaded package's type universe",
}

// TestNoWriteOnlyFields fails on every named field of a struct declared
// in a repro/internal/... package that no non-test file of the module
// reads. A read is a field selection that is not the target of an
// assignment, an op-assignment, ++ or --; a composite-literal key is a
// write. Embedded fields are skipped, and so are fields whose json tag
// keeps them in an encoding (encoding/json reads those); a field tagged
// json:"-" is still checked.
func TestNoWriteOnlyFields(t *testing.T) {
	prog, pkgs := loadRepo(t)
	if len(writeOnlyExemptions) > 5 {
		t.Errorf("%d exemptions; at most five may stay", len(writeOnlyExemptions))
	}

	// Every checked field of an internal struct, keyed by its declaring
	// object, with the name it is reported and exempted under.
	type field struct {
		pos  token.Position
		name string
	}
	declared := make(map[string]field)
	for _, pkg := range pkgs {
		if !isInternal(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			owner := make(map[*ast.StructType]string) // struct type -> enclosing type name
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						if st, ok := n.(*ast.StructType); ok && owner[st] == "" {
							owner[st] = ts.Name.Name
						}
						return true
					})
				}
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					if len(f.Names) == 0 || encodedByJSON(f) {
						continue
					}
					for _, id := range f.Names {
						obj := pkg.Info.Defs[id]
						declared[fieldKey(prog.Fset, obj)] = field{
							prog.Fset.Position(id.Pos()),
							fieldName(pkg.Types.Name(), owner[st], id.Name),
						}
					}
				}
				return true
			})
		}
	}

	// Every field selection in non-test code that is not a write target.
	read := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			writes := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						writes[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(s.X)] = true
				case *ast.RangeStmt:
					if s.Tok == token.ASSIGN {
						writes[s.Key] = true
						writes[s.Value] = true
					}
				case *ast.SelectorExpr:
					if sel := pkg.Info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal && !writes[s] {
						read[fieldKey(prog.Fset, sel.Obj())] = true
					}
				}
				return true
			})
		}
	}

	names := make(map[string]bool)
	var unread []string
	for key, f := range declared {
		names[f.name] = true
		if read[key] {
			if _, ok := writeOnlyExemptions[f.name]; ok {
				t.Errorf("exemption %s is read by non-test code; drop it", f.name)
			}
			continue
		}
		if _, ok := writeOnlyExemptions[f.name]; !ok {
			unread = append(unread, f.pos.String()+": "+f.name)
		}
	}
	for name := range writeOnlyExemptions {
		if !names[name] {
			t.Errorf("exemption %s names no checked field", name)
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is never read by non-test code", u)
	}
}

// knobExemptions names the knobs that no non-test caller outside their
// package turns, as TestEveryKnobHasACaller reports them, each with the
// reason it stays. Keep it to six entries at most: a setting nothing
// sets is a configuration nothing needs.
var knobExemptions = map[string]string{
	"sim.Config.BalancePeriod": "TestGoldenTraces' stranded-until-revive, greedy-contention " +
		"and wake-onto-failed-home cases set it; the pinned trace hashes must not move",
	"sim.Config.Quantum": "TestGoldenTraces' stranded-until-revive case sets it; " +
		"the pinned trace hashes must not move",
	"loadgen.SweepConfig.Groups": "TestGoldenSweeps' map-exp-idle-4groups and " +
		"sequential-flat-4cores cases set it; the pinned sweep hashes must not move",
	"loadgen.SweepConfig.Malleable": "TestGoldenSweeps' sequential-flat-4cores case sets it; " +
		"the pinned sweep hashes must not move",
	"loadgen.SweepConfig.IdleBalance": "TestGoldenSweeps' map-pareto-idle, map-exp-idle-4groups " +
		"and all-policies-idle cases set it; the pinned sweep hashes must not move",
	"loadgen.SweepConfig.ArrivalCores": "TestGoldenSweeps' sequential-flat-4cores case sets it; " +
		"the pinned sweep hashes must not move",
}

// TestEveryKnobHasACaller fails on every settable value no caller sets:
// an exported field of a struct named *Config or *Options declared in a
// repro/internal/... package that no non-test file of another package
// writes, and an exported With* function of the root package returning
// its Option that no non-test file outside the root references. A write
// is a composite-literal element, the target of an assignment, an
// op-assignment, ++ or --, or an operand of & (a flag bound to the
// field).
func TestEveryKnobHasACaller(t *testing.T) {
	prog, pkgs := loadRepo(t)
	if len(knobExemptions) > 6 {
		t.Errorf("%d exemptions; at most six may stay", len(knobExemptions))
	}

	// Every knob, keyed by its declaring object, with the package that
	// declares it and the name it is reported and exempted under.
	type knob struct {
		pos  token.Position
		pkg  string
		name string
	}
	knobs := make(map[string]knob)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if pkg.Path == rootPath && fd.Recv == nil && fd.Name.IsExported() &&
						strings.HasPrefix(fd.Name.Name, "With") && returnsOption(pkg, fd) {
						knobs[funcKey(pkg.Info.Defs[fd.Name])] = knob{
							prog.Fset.Position(fd.Name.Pos()), pkg.Path, pkg.Types.Name() + "." + fd.Name.Name,
						}
					}
					continue
				}
				if !isInternal(pkg.Path) {
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.IsExported() {
								knobs[fieldKey(prog.Fset, pkg.Info.Defs[id])] = knob{
									prog.Fset.Position(id.Pos()), pkg.Path,
									fieldName(pkg.Types.Name(), ts.Name.Name, id.Name),
								}
							}
						}
					}
				}
			}
		}
	}

	// Every knob turned by non-test code of another package.
	turned := make(map[string]bool)
	for _, pkg := range pkgs {
		turn := func(key string) {
			if k, ok := knobs[key]; ok && k.pkg != pkg.Path {
				turned[key] = true
			}
		}
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					turn(fieldKey(prog.Fset, s.Obj()))
				}
			}
		}
		for _, obj := range pkg.Info.Uses {
			if _, ok := obj.(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == rootPath {
				turn(funcKey(obj))
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CompositeLit:
					st, ok := pkg.Info.TypeOf(s).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range s.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if obj := pkg.Info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
								turn(fieldKey(prog.Fset, obj))
							}
						} else {
							turn(fieldKey(prog.Fset, st.Field(i)))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(s.X)
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						field(s.X)
					}
				}
				return true
			})
		}
	}

	names := make(map[string]bool)
	var idle []string
	for key, k := range knobs {
		names[k.name] = true
		_, exempt := knobExemptions[k.name]
		switch {
		case turned[key] && exempt:
			t.Errorf("exemption %s has a caller; drop it", k.name)
		case !turned[key] && !exempt:
			idle = append(idle, k.pos.String()+": "+k.name)
		}
	}
	for name := range knobExemptions {
		if !names[name] {
			t.Errorf("exemption %s names no knob", name)
		}
	}
	sort.Strings(idle)
	for _, k := range idle {
		t.Errorf("%s has no non-test caller outside its package", k)
	}
}

// rootPath is the module's root package, the optsched facade.
const rootPath = "repro"

// returnsOption reports whether fd returns exactly its package's Option.
func returnsOption(pkg *lint.Package, fd *ast.FuncDecl) bool {
	res := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return false
	}
	named, ok := res.At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() == pkg.Types && named.Obj().Name() == "Option"
}

// funcKey names a package-level function the same way from source and
// from export data.
func funcKey(obj types.Object) string {
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldKey identifies a field by its declaring object from every
// package's view of it. A package's own fields are source objects, an
// imported package's are export-data objects, and the two share only
// the declaration's file, line and name — which no two fields share.
func fieldKey(fset *token.FileSet, obj types.Object) string {
	pos := fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, obj.Name())
}

// fieldName is how a field is reported: package, enclosing type and
// field name, with "struct" standing in for a type that has no name.
func fieldName(pkg, owner, field string) string {
	if owner == "" {
		owner = "struct"
	}
	return pkg + "." + owner + "." + field
}

// encodedByJSON reports whether a field's json tag keeps it in the
// encoding, so that encoding/json reads it.
func encodedByJSON(f *ast.Field) bool {
	if f.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(f.Tag.Value)
	if err != nil {
		return false
	}
	name, ok := reflect.StructTag(tag).Lookup("json")
	return ok && name != "-"
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "repro/internal/")
}

// isChecked reports whether TestNoDeadInternalExports checks the
// exports of the package at path: the root package and every internal one.
func isChecked(path string) bool {
	return path == rootPath || isInternal(path)
}

// exportKey names an exported object of a checked package (isChecked)
// the same way from source and from export data: package path plus name
// for package-level objects, types.Func.FullName for methods and
// interface methods. Anything else — locals, fields, other modules —
// keys to "".
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !isChecked(obj.Pkg().Path()) {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if f.Type().(*types.Signature).Recv() != nil {
			return f.FullName()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfaceMethods returns the keys of the checked packages' methods
// that pkg's view shows satisfying an interface of that view: every named
// interface of pkg and of its transitive imports, standard library
// included, and every interface literal pkg spells.
func interfaceMethods(pkg *lint.Package) []string {
	var scopes []*types.Scope
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scopes = append(scopes, p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg.Types)
	scopes = append(scopes, types.Universe)

	var ifaces []*types.Interface
	var named []*types.Named
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if tn.Pkg() != nil && isChecked(tn.Pkg().Path()) {
				named = append(named, n)
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	var keys []string
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if it.NumMethods() > mset.Len() || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name())
				if key := exportKey(sel.Obj()); key != "" {
					keys = append(keys, key)
				}
			}
		}
	}
	return keys
}
