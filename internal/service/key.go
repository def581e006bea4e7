package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

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
//
// A key is the hex SHA-256 of its fields, each NUL-terminated (every
// field is NUL-free), laid out in one buffer. These bytes are what the
// durable memo's WAL stores: changing them orphans every data directory
// (TestObligationKeysArePinned).

// obligationKey hashes one (policy, universe, obligation) cell.
func obligationKey(forms map[string]string, u statespace.Universe, id verify.ObligationID, maxRounds int) string {
	return hexKey(appendObligationFields(nil, forms, u.Canonical(), id, maxRounds))
}

// appendObligationFields appends the hashed fields of one cell to dst;
// canon is the universe's Canonical form.
func appendObligationFields(dst []byte, forms map[string]string, canon string, id verify.ObligationID, maxRounds int) []byte {
	dst = appendField(dst, verify.Version)
	dst = appendField(dst, canon)
	dst = appendField(dst, string(id))
	for _, comp := range verify.ObligationDeps(id) {
		dst = appendField(dst, string(comp))
		dst = appendField(dst, forms[string(comp)])
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
		dst = strconv.AppendInt(append(dst, "maxRounds="...), int64(maxRounds), 10)
		dst = append(dst, 0)
	}
	return dst
}

// jobKeyOf identifies a whole submission for coalescing: the report
// header name plus every obligation cell, in request order. Two
// concurrent identical submissions share one job; submissions that
// differ only in display name share cache cells but not jobs, so each
// poller still receives a report headed by its own submission's name.
// buf is scratch the fields are laid out in.
func jobKeyOf(buf []byte, display string, keys []string) string {
	buf = appendField(buf[:0], display)
	for _, k := range keys {
		buf = appendField(buf, k)
	}
	return hexKey(buf)
}

// appendField appends a length-unambiguous field (NUL-terminated; every
// hashed string here is NUL-free).
func appendField(dst []byte, s string) []byte {
	return append(append(dst, s...), 0)
}

// hexKey returns the hex SHA-256 of fields: the key's one allocation.
func hexKey(fields []byte) string {
	sum := sha256.Sum256(fields)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
