package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/statespace"
	"repro/internal/verify"
)

// Cache keys are content hashes over everything that can change a
// Result and nothing that cannot:
//
//   - the verifier version (verify.Version): checker semantics;
//   - the canonical universe (statespace.Universe.Canonical): the
//     quantification domain, with the MaxTotal=0 shorthand expanded;
//   - the obligation ID;
//   - the canonical compiled form of exactly the policy components the
//     obligation's checker consults (verify.ObligationDeps), each
//     closed over the load clause where referenced (dsl.ComponentForm);
//   - MaxRounds, for the one obligation whose verdict depends on it.
//
// Parallelism and worker pools are deliberately absent: the shard
// partition is a constant of the verifier (a change to it bumps
// verify.Version), so the sharded driver's reports are byte-identical at
// every parallelism level and on every host — the invariant that makes
// memoization sound at all.

// obligationKey hashes one (policy, universe, obligation) cell.
func obligationKey(forms map[string]string, u statespace.Universe, id verify.ObligationID, maxRounds int) string {
	h := sha256.New()
	writeField(h, verify.Version)
	writeField(h, u.Canonical())
	writeField(h, string(id))
	for _, comp := range verify.ObligationDeps(id) {
		writeField(h, string(comp))
		writeField(h, forms[string(comp)])
	}
	if id == verify.ObWorkConservSeq || id == verify.ObNoTaskLost || id == verify.ObDegradedWastedCores {
		// The sequential work-conservation search gives up (REFUTED)
		// after MaxRounds rounds, and the fault obligations use the same
		// bound as the re-home/recovery deadline, so for these three the
		// bound is part of the verdict's identity. The other checkers
		// never read it.
		if maxRounds <= 0 {
			maxRounds = verify.DefaultMaxRounds
		}
		writeField(h, fmt.Sprintf("maxRounds=%d", maxRounds))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobKeyOf identifies a whole submission for coalescing: the report
// header name plus every obligation cell, in request order. Two
// concurrent identical submissions share one job; submissions that
// differ only in display name share cache cells but not jobs, so each
// poller still receives a report headed by its own submission's name.
func jobKeyOf(display string, keys []string) string {
	h := sha256.New()
	writeField(h, display)
	for _, k := range keys {
		writeField(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeField writes a length-unambiguous field (NUL-terminated; every
// hashed string here is NUL-free).
func writeField(h hash.Hash, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}
