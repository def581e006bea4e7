package dsl

import "repro/internal/sched"

// Views of the package's reference semantics and probe universe for the
// external tests in this directory (package dsl_test), which draw their
// policies from the registry in a package that imports this one.

// ReferencePolicy is p evaluated by the reference tree walk.
func ReferencePolicy(p *Policy) sched.Policy { return referencePolicy(p) }

// Agree compares a compiled policy with its reference on a machine's
// cores.
var Agree = agree

// AgreeOnProbes compares them on every pair of Analyze's probe universe,
// identical pairs included.
func AgreeOnProbes(compiled, ref sched.Policy) error {
	for _, set := range [][]probePair{probeProper, probeIdentical} {
		for _, pr := range set {
			if err := agreeOnPair(compiled, ref, pr.self, pr.stealee); err != nil {
				return err
			}
		}
	}
	return nil
}
