package verify

import (
	"encoding/json"
	"fmt"
)

// This file defines the deterministic JSON encoding of verification
// reports — the one wire format shared by `schedverify -json`, the
// schedverifyd daemon and the optsched.VerifyClient, so CLI output and
// service responses are byte-diffable. Determinism comes for free from
// encoding/json over plain structs (fields emit in declaration order)
// plus the omitempty tags on Result's conditional fields; nothing here
// may switch to map-backed or reflection-ordered encodings.

// ReportJSON renders r in the canonical indented JSON encoding. Two
// reports with equal contents always produce identical bytes, so a
// memoized report replayed from the result cache is byte-identical to
// the cold run that produced it.
func ReportJSON(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ReportFromJSON decodes a report encoded by ReportJSON. It rejects
// trailing garbage and unknown obligation IDs (CheckObligationIDs).
func ReportFromJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("verify: bad report JSON: %w", err)
	}
	if err := CheckObligationIDs(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// CheckObligationIDs rejects a report naming an obligation this verifier
// does not know: no one silently accepts an incompatible server's report.
func CheckObligationIDs(r *Report) error {
	for _, res := range r.Results {
		if !KnownObligation(res.ID) {
			return fmt.Errorf("verify: report names unknown obligation %q", res.ID)
		}
	}
	return nil
}
