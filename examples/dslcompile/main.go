// Dslcompile walks the paper's full DSL pipeline in one program through
// the session API: parse a policy written in the scheduling DSL, verify
// it (the Leon-backend analogue), run it in the real executor (the
// kernel-backend analogue), and emit the generated Go code. One
// WithDSL cluster serves both the verification and the execution —
// that is the paper's "compile once, target every backend" pipeline.
//
//	go run ./examples/dslcompile
package main

import (
	"context"
	"fmt"

	optsched "repro"
)

// source is Listing 1 in the DSL.
const source = `
# Listing 1: the simple work-conserving load balancer.
policy delta2 {
    load   = self.ready.size + self.current.size
    filter = stealee.load() - self.load() >= 2
    steal  = 1
    choose = max_load
}
`

func main() {
	ctx := context.Background()

	// Front end: parse + type-check (the session API compiles the same
	// source internally; parsing here shows the canonicalized policy).
	ast, err := optsched.ParsePolicy(source)
	if err != nil {
		panic(err)
	}
	fmt.Printf("parsed policy %q:\n%s\n", ast.Name, ast)

	cluster, err := optsched.New(
		optsched.WithDSL(source),
		optsched.WithBackend(optsched.BackendExecutor),
	)
	if err != nil {
		panic(err)
	}

	// Backend 1 (verification): the proof obligations, in parallel.
	rep, err := cluster.Verify(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep)

	// Backend 2 (execution): drive the work-stealing executor with the
	// compiled policy; submit everything to worker 0 and watch steals.
	sc := optsched.SkewedScenario("dsl-burst", 800, 50)
	sc.Cores = 4
	res, err := cluster.Run(ctx, sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nexecutor: %d/%d tasks done, %d stolen, %d optimistic failures\n",
		res.Completed, res.Tasks, res.Steals, res.StealFails)

	// Backend 3 (codegen): the Go source a kernel build would compile.
	fmt.Println("\ngenerated Go backend:")
	fmt.Println(optsched.GeneratePolicyGo(ast, "policies"))
}
