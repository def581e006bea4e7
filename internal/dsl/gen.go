package dsl

import (
	"fmt"
	"strings"
)

// Generate emits a self-contained Go source file implementing the policy
// as a sched.Policy — the analogue of the paper's DSL→C kernel backend.
// The output compiles against repro/internal/sched and behaves
// identically to the policy Compile builds (a property the tests check
// by construction of the two backends from the same AST).
func Generate(p *Policy, pkg string) string {
	typeName := exportedName(p.Name)
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by scheddsl from policy %q. DO NOT EDIT.\n\n", p.Name)
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import \"repro/internal/sched\"\n\n")
	fmt.Fprintf(&b, "// %s is the DSL policy %q:\n//\n", typeName, p.Name)
	for _, line := range strings.Split(strings.TrimRight(p.String(), "\n"), "\n") {
		fmt.Fprintf(&b, "//\t%s\n", line)
	}
	fmt.Fprintf(&b, "type %s struct{}\n\n", typeName)
	fmt.Fprintf(&b, "// Name implements sched.Policy.\n")
	fmt.Fprintf(&b, "func (p *%s) Name() string { return %q }\n\n", typeName, p.Name)
	fmt.Fprintf(&b, "// Load implements sched.Policy.\n")
	fmt.Fprintf(&b, "func (p *%s) Load(c *sched.Core) int64 {\n\treturn %s\n}\n\n",
		typeName, genInt(p.Load, "c", ""))
	fmt.Fprintf(&b, "// CanSteal implements sched.Policy (step-1 filter).\n")
	fmt.Fprintf(&b, "func (p *%s) CanSteal(thief, stealee *sched.Core) bool {\n\treturn %s\n}\n\n",
		typeName, genBool(p.Filter, "thief", "stealee"))
	fmt.Fprintf(&b, "// StealCount implements sched.Policy (step-3 sizing).\n")
	fmt.Fprintf(&b, "func (p *%s) StealCount(thief, stealee *sched.Core) int {\n\treturn int(%s)\n}\n\n",
		typeName, genInt(p.Steal, "thief", "stealee"))
	fmt.Fprintf(&b, "// Choose implements sched.Policy (step-2 heuristic: %s).\n", p.Choose.Name)
	fmt.Fprintf(&b, "func (p *%s) Choose(thief *sched.Core, candidates []*sched.Core) *sched.Core {\n", typeName)
	b.WriteString(genChooser(p.Choose))
	b.WriteString("}\n")
	return b.String()
}

// exportedName turns a DSL identifier into an exported Go identifier.
func exportedName(name string) string {
	parts := strings.FieldsFunc(name, func(r rune) bool { return r == '_' || r == '-' })
	var b strings.Builder
	for _, part := range parts {
		b.WriteString(strings.ToUpper(part[:1]))
		b.WriteString(part[1:])
	}
	if b.Len() == 0 {
		return "Policy"
	}
	return b.String()
}

func genInt(e expr, selfVar, stealeeVar string) string {
	switch n := e.(type) {
	case *intLit:
		return fmt.Sprintf("int64(%d)", n.val)
	case *attrRef:
		v := selfVar
		if n.root == rootStealee {
			v = stealeeVar
		}
		return genAttr(n.attr, v)
	case *unary:
		return "-" + genInt(n.x, selfVar, stealeeVar)
	case *binary:
		return fmt.Sprintf("(%s %s %s)",
			genInt(n.l, selfVar, stealeeVar), n.op, genInt(n.r, selfVar, stealeeVar))
	}
	panic(fmt.Sprintf("dsl: genInt on %T", e))
}

func genBool(e expr, selfVar, stealeeVar string) string {
	switch n := e.(type) {
	case *boolLit:
		return fmt.Sprintf("%v", n.val)
	case *unary:
		return "!(" + genBool(n.x, selfVar, stealeeVar) + ")"
	case *binary:
		switch n.op {
		case "&&", "||":
			return fmt.Sprintf("(%s %s %s)",
				genBool(n.l, selfVar, stealeeVar), n.op, genBool(n.r, selfVar, stealeeVar))
		default:
			return fmt.Sprintf("(%s %s %s)",
				genInt(n.l, selfVar, stealeeVar), n.op, genInt(n.r, selfVar, stealeeVar))
		}
	}
	panic(fmt.Sprintf("dsl: genBool on %T", e))
}

func genAttr(a coreAttr, v string) string {
	switch a {
	case attrLoad:
		return fmt.Sprintf("p.Load(%s)", v)
	case attrNThreads:
		return fmt.Sprintf("int64(%s.NThreads())", v)
	case attrReadySize:
		return fmt.Sprintf("int64(len(%s.Queued()))", v)
	case attrCurrent:
		return fmt.Sprintf("currentSize(%s)", v)
	case attrWeightSum:
		return fmt.Sprintf("%s.WeightSum()", v)
	case attrID:
		return fmt.Sprintf("int64(%s.ID)", v)
	case attrGroup:
		return fmt.Sprintf("int64(%s.Group)", v)
	case attrNode:
		return fmt.Sprintf("int64(%s.Node)", v)
	}
	panic(fmt.Sprintf("dsl: genAttr on %d", a))
}

func genChooser(c Chooser) string {
	switch c.Name {
	case "", "first":
		return "\treturn sched.ChooseFirst(thief, candidates)\n"
	case "max_load":
		return "\treturn sched.ChooseMaxLoad(p.Load)(thief, candidates)\n"
	case "min_load":
		return `	best := candidates[0]
	bestLoad := p.Load(best)
	for _, c := range candidates[1:] {
		if l := p.Load(c); l < bestLoad || (l == bestLoad && c.ID < best.ID) {
			best, bestLoad = c, l
		}
	}
	return best
`
	case "random":
		seed := c.Seed
		if seed == 0 {
			seed = 0x1234567
		}
		return fmt.Sprintf(`	state := chooserState
	if state == 0 {
		state = %d
	}
	state ^= state << 13
	state ^= state >> 7
	state ^= state << 17
	chooserState = state
	return candidates[state%%uint64(len(candidates))]
`, seed)
	}
	panic(fmt.Sprintf("dsl: unknown chooser %q", c.Name))
}

// GenerateSupport emits the helper declarations the generated code may
// reference (currentSize, chooserState). Emit it once per output package.
func GenerateSupport(pkg string) string {
	return fmt.Sprintf(`// Code generated by scheddsl (support declarations). DO NOT EDIT.

package %s

import "repro/internal/sched"

// currentSize returns 1 if the core runs a task, 0 otherwise.
func currentSize(c *sched.Core) int64 {
	if c.Current != nil {
		return 1
	}
	return 0
}

// chooserState seeds generated random choosers.
var chooserState uint64
`, pkg)
}
