// Package fixture is the negative depsaudit case from the issue: a
// checker that calls Choose without declaring CompChoose must draw
// exactly one diagnostic, on the row. A second obligation declares a
// component its checker never reaches, and a third picks its steal
// through a TaskPicker without declaring CompSteal.
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
)

const (
	CompFilter = "filter"
	CompChoose = "choose"
	CompSteal  = "steal"
)

var obligationDeps = map[ObligationID][]string{
	ObUndeclared: {CompFilter},            // want "reaches policy component .choose. .via checkUndeclared -> Policy.Choose. but its obligationDeps row does not declare it"
	ObUnreached:  {CompFilter, CompSteal}, // want "declares component .steal. but the checker never reaches it"
	ObPicked:     {CompFilter},            // want "reaches policy component .steal. .via checkPicked -> TaskPicker.PickTask. but its obligationDeps row does not declare it"
}

func dispatch(id ObligationID, p Policy) {
	switch id {
	case ObUndeclared:
		checkUndeclared(p)
	case ObUnreached:
		checkUnreached(p)
	case ObPicked:
		checkPicked(p)
	}
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
