package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/verify"
)

// oracle.json is the hand-reviewed table of expected verdicts: one row
// per (policy variant, universe) the verifyd workloads submit, one
// PROVED/REFUTED per obligation. It holds verdicts only — never report
// bytes, witnesses or state counts — so a verify.Version bump that keeps
// the verdicts keeps the table.
//
//go:embed oracle.json
var embeddedOracle []byte

// oracle maps "<variant>@<universe label>" to obligation ID to verdict.
type oracle map[string]map[string]string

// loadOracle decodes the embedded table.
func loadOracle() (oracle, error) {
	var doc struct {
		Verdicts oracle `json:"verdicts"`
	}
	if err := json.Unmarshal(embeddedOracle, &doc); err != nil {
		return nil, fmt.Errorf("oracle table: %w", err)
	}
	if len(doc.Verdicts) == 0 {
		return nil, fmt.Errorf("oracle table has no verdicts")
	}
	return doc.Verdicts, nil
}

func verdictOf(res verify.Result) string {
	switch {
	case res.Aborted:
		return "ABORTED"
	case res.Passed:
		return "PROVED"
	}
	return "REFUTED"
}

// check compares every obligation verdict of rep with the table row; a
// missing row or obligation is a mismatch too, so a new submission
// cannot slip in unreviewed.
func (o oracle) check(row string, rep *verify.Report) error {
	want, ok := o[row]
	if !ok {
		return fmt.Errorf("oracle: no row %q", row)
	}
	if len(rep.Results) != len(want) {
		return fmt.Errorf("oracle: %s: report has %d obligations, table %d", row, len(rep.Results), len(want))
	}
	for _, res := range rep.Results {
		if got := verdictOf(res); got != want[string(res.ID)] {
			return fmt.Errorf("oracle: %s: %s is %s, table says %q", row, res.ID, got, want[string(res.ID)])
		}
	}
	return nil
}
