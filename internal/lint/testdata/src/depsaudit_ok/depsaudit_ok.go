// Package fixture is a self-contained miniature of internal/verify's
// obligation machinery on which depsaudit must stay silent: rows that
// match their checkers' reach exactly, a load-closure case (Load
// reached, CompLoad undeclared, another component declared), and an
// allow-annotated discarded-Choose row, and a steal sized by a
// TaskPicker's PickTask.
package fixture

type Core struct{ ID int }
type Machine struct{ Cores []Core }

// Policy mirrors sched.Policy's shape; depsaudit keys on the interface
// and method names, not the defining package.
type Policy interface {
	Load(c *Core) int64
	CanSteal(self, stealee *Core) bool
	Choose(self *Core, cands []*Core) *Core
	StealCount(self, stealee *Core) int
}

type TaskPicker interface {
	PickTask(self, stealee *Core) *Core
}

type Rescuer interface {
	RescueTarget(m *Machine, failed int) int
}

type ObligationID string

const (
	ObExact    ObligationID = "exact"
	ObDirect   ObligationID = "direct-load"
	ObClosure  ObligationID = "load-closure"
	ObDiscard  ObligationID = "discarded-choose"
	ObIndirect ObligationID = "indirect"
	ObRescue   ObligationID = "rescue"
	ObPicked   ObligationID = "picked"
)

const (
	CompLoad   = "load"
	CompFilter = "filter"
	CompChoose = "choose"
	CompSteal  = "steal"
	CompRescue = "rescue"
)

var obligationDeps = map[ObligationID][]string{
	ObExact:    {CompFilter, CompSteal},
	ObDirect:   {CompLoad, CompChoose},
	ObClosure:  {CompFilter},
	ObDiscard:  {CompFilter}, //schedlint:allow depsaudit fixture: Choose is called and discarded on purpose
	ObIndirect: {CompFilter, CompChoose},
	ObRescue:   {CompRescue},
	ObPicked:   {CompFilter, CompSteal},
}

func dispatch(id ObligationID, p Policy, r Rescuer) {
	switch id {
	case ObExact:
		checkExact(p)
	case ObDirect:
		checkDirect(p)
	case ObClosure:
		checkClosure(p)
	case ObDiscard:
		checkDiscard(p)
	case ObIndirect:
		checkIndirect(p)
	case ObRescue:
		checkRescue(r)
	case ObPicked:
		checkPicked(p)
	}
}

func checkExact(p Policy) {
	var a, b Core
	if p.CanSteal(&a, &b) {
		_ = p.StealCount(&a, &b)
	}
}

func checkDirect(p Policy) {
	var c Core
	_ = p.Load(&c)
	_ = p.Choose(&c, nil)
}

// checkClosure observes load only alongside a declared component: the
// row omits CompLoad because DSL component hashing closes filter forms
// over the load clause.
func checkClosure(p Policy) {
	var a, b Core
	if p.CanSteal(&a, &b) {
		_ = p.Load(&a)
	}
}

// checkDiscard calls Choose and throws the result away — the verdict
// quantifies over every choice, so the row intentionally omits
// CompChoose and carries an allow directive.
func checkDiscard(p Policy) {
	var a, b Core
	if p.CanSteal(&a, &b) {
		_ = p.Choose(&a, []*Core{&b})
	}
}

// checkIndirect reaches the policy only through helpers, one of them
// passed as a function value.
func checkIndirect(p Policy) {
	var a Core
	walk(p, &a, successors)
}

func walk(p Policy, c *Core, next func(Policy, *Core) []*Core) {
	for _, s := range next(p, c) {
		_ = p.Choose(c, []*Core{s})
	}
}

func successors(p Policy, c *Core) []*Core {
	var other Core
	if p.CanSteal(c, &other) {
		return []*Core{&other}
	}
	return nil
}

func checkRescue(r Rescuer) {
	var m Machine
	_ = r.RescueTarget(&m, 0)
}

// checkPicked sizes its steal the way sched.DecideSteal does for a
// TaskPicker: PickTask counts as the steal component.
func checkPicked(p Policy) {
	var a, b Core
	if picker, ok := p.(TaskPicker); ok && p.CanSteal(&a, &b) {
		_ = picker.PickTask(&a, &b)
	}
}
