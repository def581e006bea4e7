package verify

import (
	"bytes"
	"context"
	"reflect"
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

// FuzzReportFromJSON holds the report decoder to three properties: no
// input panics it, no report it accepts names an unknown obligation, and
// every report it accepts is a fixed point: ReportJSON re-encodes it to
// bytes it decodes back to an equal report. The seeds are the golden
// corpus's reports.
func FuzzReportFromJSON(f *testing.F) {
	for _, c := range goldenCases(f) {
		rep, err := PolicyContext(context.Background(), c.name, c.f, Config{Sequential: true, Universe: c.u})
		if err != nil {
			f.Fatal(err)
		}
		data, err := ReportJSON(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"policy":"p","universe":"u","results":[{"id":"lemma99","passed":true}]}`))
	f.Add([]byte(`{"policy":"p","universe":"u","results":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReportFromJSON(data)
		if err != nil {
			return
		}
		for _, res := range r.Results {
			if !KnownObligation(res.ID) {
				t.Fatalf("accepted a report naming unknown obligation %q", res.ID)
			}
		}
		again, err := ReportJSON(r)
		if err != nil {
			t.Fatalf("an accepted report does not re-encode: %v", err)
		}
		back, err := ReportFromJSON(again)
		if err != nil {
			t.Fatalf("the re-encoded report is rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("the round trip changed the report:\n%+v\n%+v", r, back)
		}
	})
}
