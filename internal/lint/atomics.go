package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The atomicsdiscipline analyzer guards the lock-free executor
// (internal/engine). Motivated by Alistarh et al. (PAPERS.md): the
// executor's progress argument depends on every cross-thread field
// access being atomic, and the classic way that rots is one forgotten
// plain read. Two checks:
//
//   - address-based discipline: a field (or package-level variable)
//     whose address is ever passed to a sync/atomic function must be
//     accessed through sync/atomic everywhere — a plain read can tear
//     or miss a published write, a plain write races;
//   - typed-atomic discipline: a sync/atomic.{Bool,Int32,…,Value} field
//     may only be used as a method-call receiver or through its
//     address; copying one by value forks the atomic state.

// AtomicsDiscipline is the atomics analyzer: it flags plain accesses to
// fields accessed via sync/atomic elsewhere, and by-value copies of
// sync/atomic values.
var AtomicsDiscipline = &Analyzer{
	Name: "atomicsdiscipline",
	Run:  runAtomics,
}

var atomicValueTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func runAtomics(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass 1: collect every variable whose address flows into a
	// sync/atomic call, and remember those exact &x expressions so pass
	// 2 can exempt them.
	atomicVars := map[*types.Var]bool{}
	atomicUses := map[ast.Expr]bool{} // the x in atomic.Op(&x, …)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := calleeFunc(info, call)
			if !ok || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" || sigRecv(callee) != nil {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				target := ast.Unparen(un.X)
				if v := varOf(info, target); v != nil {
					atomicVars[v] = true
					atomicUses[target] = true
				}
			}
			return true
		})
	}

	// Pass 2: flag plain accesses of those variables, plus by-value
	// copies of typed sync/atomic values. parent tracking tells a
	// method-call receiver (fine) from a copy (flagged).
	for _, file := range pass.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				checkAtomicAccess(pass, e, stack, atomicVars, atomicUses)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

func checkAtomicAccess(pass *Pass, e ast.Expr, stack []ast.Node, atomicVars map[*types.Var]bool, atomicUses map[ast.Expr]bool) {
	info := pass.Pkg.Info
	v := useOf(info, e)
	if v == nil {
		return
	}
	parent := parentNode(stack)

	// Skip the inner X of a.b when the whole selector is the variable
	// access being considered separately, and skip selector Sel idents
	// (the enclosing SelectorExpr is the access).
	if sel, ok := parent.(*ast.SelectorExpr); ok {
		if sel.Sel == e || useOf(info, sel) == v {
			return
		}
	}

	if atomicVars[v] {
		if atomicUses[e] || addressedBy(parent, e) {
			return
		}
		// Receiver position of a method call (e.g. a future typed-atomic
		// migration) is fine; everything else is a plain access.
		pass.Reportf(e.Pos(), "plain access of %s, which is accessed with sync/atomic elsewhere: a plain read can tear and a plain write races", v.Name())
		return
	}

	// Typed atomics: the access itself is fine, but using the value
	// outside a method call or address-of copies the atomic.
	if !isAtomicValueType(v.Type()) {
		return
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.field.Load() — the method selector; the grandparent call uses
		// it as a receiver. Field accesses deeper in are caught on their
		// own selector.
		return
	case *ast.UnaryExpr:
		if addressedBy(p, e) {
			return
		}
	case *ast.KeyValueExpr:
		if p.Key == e {
			return // field name in a composite literal, not a value use
		}
	case nil:
	}
	pass.Reportf(e.Pos(), "%s has a sync/atomic type and is used by value here: copying an atomic forks its state; call its methods or take its address", v.Name())
}

// varOf resolves an expression to the field or variable it denotes,
// declarations included.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	if v := useOf(info, e); v != nil {
		return v
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		v, _ := info.Defs[id].(*types.Var)
		return v
	}
	return nil
}

// useOf resolves an expression to the field or variable it *uses* —
// declaration sites (struct fields, var specs) resolve to nil.
func useOf(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

func parentNode(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func addressedBy(parent ast.Node, e ast.Expr) bool {
	un, ok := parent.(*ast.UnaryExpr)
	return ok && un.Op == token.AND && ast.Unparen(un.X) == e
}

func isAtomicValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicValueTypes[obj.Name()]
}
