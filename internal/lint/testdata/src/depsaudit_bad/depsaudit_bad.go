// Package fixture is the negative depsaudit case: a check that calls
// Choose without declaring CompChoose must draw exactly one diagnostic,
// on its row. A second row declares a component its check never
// reaches, a third picks its steal through a TaskPicker without
// declaring CompSteal, and a fourth's check is not a function reference,
// which the audit must report as unreadable rather than skip.
package fixture

type Core struct{ ID int }

type Policy interface {
	Load(c *Core) int64
	CanSteal(self, stealee *Core) bool
	Choose(self *Core, cands []*Core) *Core
	StealCount(self, stealee *Core) int
}

type TaskPicker interface {
	PickTask(self, stealee *Core) *Core
}

type ObligationID string

const (
	ObUndeclared ObligationID = "undeclared-choose"
	ObUnreached  ObligationID = "unreached-steal"
	ObPicked     ObligationID = "undeclared-pick"
	ObUnreadable ObligationID = "unreadable-check"
)

const (
	CompFilter = "filter"
	CompChoose = "choose"
	CompSteal  = "steal"
)

type obligation struct {
	id    ObligationID
	check func(p Policy)
	deps  []string
}

// inline is a check held in a variable, not named: the audit cannot
// follow it.
var inline = func(p Policy) { checkUndeclared(p) }

var obligations = [...]obligation{
	{id: ObUndeclared, check: checkUndeclared, deps: []string{CompFilter}},          // want "reaches policy component .choose. .via checkUndeclared -> Policy.Choose. but its row does not declare it"
	{id: ObUnreached, check: checkUnreached, deps: []string{CompFilter, CompSteal}}, // want "declares component .steal. but its check never reaches it"
	{id: ObPicked, check: checkPicked, deps: []string{CompFilter}},                  // want "reaches policy component .steal. .via checkPicked -> TaskPicker.PickTask. but its row does not declare it"
	{id: ObUnreadable, check: inline, deps: []string{CompFilter, CompChoose}},       // want "row .unreadable-check.: check is not a function reference"
}

func checkUndeclared(p Policy) {
	var a, b Core
	if p.CanSteal(&a, &b) {
		_ = p.Choose(&a, []*Core{&b})
	}
}

func checkUnreached(p Policy) {
	var a, b Core
	_ = p.CanSteal(&a, &b)
}

func checkPicked(p Policy) {
	var a, b Core
	if picker, ok := p.(TaskPicker); ok && p.CanSteal(&a, &b) {
		_ = picker.PickTask(&a, &b)
	}
}
