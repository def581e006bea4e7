package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism analyzer enforces the byte-identical-output
// discipline of the deterministic packages (DeterministicPackages):
// verification reports, canonical component forms, histograms and
// simulation traces must not depend on the wall clock, on the global
// math/rand source, on map iteration order, or on encoding/json's
// key-sorted map rendering. Four checks, all per-file over the
// package's non-test files (the loader never loads _test.go files, and
// tests may time things):
//
//   - calls to (or references of) time.Now, time.Since, time.Until;
//   - references to math/rand (and math/rand/v2) package-level
//     functions other than the constructors — the global source is
//     process-shared and unseedable per component;
//   - `range` over a map whose body is order-sensitive: it returns or
//     breaks (first-match selection), appends, formats/writes output,
//     or plainly assigns a non-constant to a variable declared outside
//     the loop (argmax/argmin over map order);
//   - map-typed fields carrying a json tag: report structs marshal in
//     declaration order, maps in sorted-key order — a map field hands
//     part of the document's shape to the encoder.

// Determinism is the determinism analyzer: it forbids wall-clock, global
// rand, order-sensitive map iteration and map JSON fields in
// deterministic packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand identifiers that do NOT touch the
// global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if bannedTimeFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock; deterministic packages must not", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if sigRecv(obj) == nil && !randConstructors[obj.Name()] {
						pass.Reportf(n.Pos(), "rand.%s draws from the process-global source; use a seeded rand.New(rand.NewSource(…)) or a local generator", obj.Name())
					}
				}
			case *ast.RangeStmt:
				t := info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if why := orderSensitive(pass, n); why != "" {
					pass.Reportf(n.Pos(), "map iteration order flows into output (%s); sort the keys or iterate a deterministic index", why)
				}
			case *ast.StructType:
				checkJSONFields(pass, n)
			}
			return true
		})
	}
	return nil
}

func sigRecv(f *types.Func) *types.Var {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// orderSensitive reports why a map-range body is order-sensitive, or ""
// when every statement in it is order-insensitive (counting, summing,
// keyed writes into other maps, deletes). Returns and breaks are
// order-sensitive because they select "the first entry map order
// happens to produce"; appends, prints and buffer writes lay values
// down in iteration order; a plain assignment to an outer variable is
// an argmax/argmin whose tie-breaking follows map order.
func orderSensitive(pass *Pass, rng *ast.RangeStmt) string {
	info := pass.Pkg.Info
	var why string
	note := func(s string) {
		if why == "" {
			why = s
		}
	}
	// stack tracks the enclosing nodes inside the body, so a plain
	// `break` can be attributed: with a nested breakable construct on
	// the stack it exits that construct, otherwise it exits our loop.
	var stack []ast.Node
	breakableOnStack := func() bool {
		for _, n := range stack {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				return true
			}
		}
		return false
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a stored/deferred closure runs outside this iteration
		case *ast.ReturnStmt:
			note("returns from inside the loop")
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && (n.Label != nil || !breakableOnStack()) {
				note("breaks out of the loop")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
					note("appends to a slice")
				}
			}
			if obj, ok := calleeFunc(info, n); ok {
				if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && strings.Contains(obj.Name(), "rint") {
					note("formats output")
				}
				if recv := sigRecv(obj); recv != nil && writerReceiver(recv.Type()) && strings.HasPrefix(obj.Name(), "Write") {
					note("writes to a buffer/writer")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for i, lhs := range n.Lhs {
					if !outerPlainTarget(info, lhs, rng) {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if rhs == nil || !isConstExpr(info, rhs) {
						note("assigns " + exprString(lhs) + " declared outside the loop")
						break
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return why
}

// outerPlainTarget reports whether an assignment target is (or roots
// at) a variable declared outside the range statement. Writes through
// index expressions (m[k] = v) are keyed, hence order-insensitive.
func outerPlainTarget(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
	case *ast.SelectorExpr:
		return outerPlainTarget(info, rootExpr(e), rng)
	case *ast.StarExpr:
		return outerPlainTarget(info, rootExpr(e.X), rng)
	}
	return false
}

func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// calleeFunc resolves a call's static callee.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, ok := info.Uses[fun].(*types.Func)
		return f, ok
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			return f, ok
		}
		f, ok := info.Uses[fun.Sel].(*types.Func)
		return f, ok
	}
	return nil, false
}

// writerReceiver recognizes buffer-like receivers whose Write* methods
// lay bytes down in call order.
func writerReceiver(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// checkJSONFields flags map-typed fields that carry a json tag.
func checkJSONFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		tag := field.Tag.Value
		if !strings.Contains(tag, `json:"`) || strings.Contains(tag, `json:"-"`) {
			continue
		}
		t := pass.Pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		name := "(embedded)"
		if len(field.Names) > 0 {
			name = field.Names[0].Name
		}
		pass.Reportf(field.Pos(), "map-typed JSON field %s: encoding/json renders maps in sorted-key order, outside the declaration-order report discipline; prefer a slice of structs", name)
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
