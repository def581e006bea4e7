package verify

import (
	"bytes"
	"testing"
)

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Policy:   "p",
		Universe: "universe{...}",
		Results: []Result{
			{ID: ObLemma1, Passed: true, StatesChecked: 10},
			{ID: ObWorkConservSeq, Passed: false, Witness: "stuck", StatesChecked: 4, Bound: 1000},
			{ID: ObReactivity, Passed: false, Aborted: true, Witness: "ctx", SchedulesChecked: 3},
		},
	}
	a, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one report differ")
	}
	back, err := ReportFromJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ReportJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", a, c)
	}
}

func TestReportJSONFromColdRun(t *testing.T) {
	rep := sequentialReport("delta2", delta2Factory, Config{Universe: smallUniverse()})
	data, err := ReportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReportFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ReportJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("cold-run report not stable under decode/encode:\n%s\nvs\n%s", data, again)
	}
	if back.Passed() != rep.Passed() {
		t.Error("verdict changed across the wire")
	}
}

func TestReportFromJSONRejectsGarbage(t *testing.T) {
	if _, err := ReportFromJSON([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReportFromJSON([]byte(`{"policy":"p","universe":"u","results":[{"id":"lemma99","passed":true}]}`)); err == nil {
		t.Error("unknown obligation ID accepted")
	}
}
