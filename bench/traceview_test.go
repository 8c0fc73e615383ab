package main

import (
	"math"
	"testing"
)

// handTrace is a Chrome trace as obs.TraceJSON writes it: a metadata
// event, an async event, and complete spans on two goroutine tracks.
// Track 1 nests program spans inside two benchmark operations; track 2
// holds one span with no parent.
const handTrace = `{"traceEvents": [
 {"name": "process_name", "ph": "M", "pid": 7, "tid": 0, "args": {"name": "bench"}},
 {"name": "lease", "cat": "lease", "ph": "b", "ts": 5, "pid": 7, "tid": 1, "id": "x"},
 {"name": "bench:fig4", "ph": "X", "ts": 0, "dur": 100, "pid": 7, "tid": 1},
 {"name": "exp:fig4", "ph": "X", "ts": 10, "dur": 80, "pid": 7, "tid": 1},
 {"name": "analyze:minife", "ph": "X", "ts": 20, "dur": 30, "pid": 7, "tid": 1},
 {"name": "analyze:srad", "ph": "X", "ts": 50, "dur": 30, "pid": 7, "tid": 1},
 {"name": "bench:fig6", "ph": "X", "ts": 100, "dur": 60, "pid": 7, "tid": 1},
 {"name": "exp:fig6", "ph": "X", "ts": 100, "dur": 50, "pid": 7, "tid": 1},
 {"name": "analyze:minife", "ph": "X", "ts": 110, "dur": 30, "pid": 7, "tid": 1},
 {"name": "analyze:matmul", "ph": "X", "ts": 0, "dur": 30, "pid": 7, "tid": 2}
], "displayTimeUnit": "ms"}`

func TestSelfTimes(t *testing.T) {
	spans, err := parseSpans([]byte(handTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("parsed %d spans, want the 8 complete ones", len(spans))
	}
	got := selfTimes(spans)
	for name, want := range map[string]spanStat{
		"bench:fig4":     {Count: 1, Total: 100, Self: 20},
		"exp:fig4":       {Count: 1, Total: 80, Self: 20},
		"analyze:minife": {Count: 2, Total: 60, Self: 60},
		"analyze:srad":   {Count: 1, Total: 30, Self: 30},
		"bench:fig6":     {Count: 1, Total: 60, Self: 10},
		"exp:fig6":       {Count: 1, Total: 50, Self: 20},
		// Alone on its track: nothing nests it, nothing is subtracted.
		"analyze:matmul": {Count: 1, Total: 30, Self: 30},
	} {
		if g := got[name]; g == nil || *g != want {
			t.Errorf("%s: got %+v, want %+v", name, g, want)
		}
	}
	layers := layerTimes(got)
	if c := layers["core"]; c.Self != 120 || c.Count != 4 {
		t.Errorf("core layer %+v, want self 120 over 4 spans", c)
	}
}

func TestWhereTimeGoes(t *testing.T) {
	spans, err := parseSpans([]byte(handTrace))
	if err != nil {
		t.Fatal(err)
	}
	// Without the parentless track-2 span every program span sits inside
	// a benchmark operation: 160 µs of operations split into core 90,
	// experiments 40, and 30 that only the benchmark spans cover.
	rows := whereTimeGoes(selfTimes(spans[:len(spans)-1]))
	want := []whereRow{
		{Layer: "core", Spans: 3, SelfS: 90e-6, Share: 90.0 / 160},
		{Layer: "experiments", Spans: 2, SelfS: 40e-6, Share: 40.0 / 160},
		{Layer: "bench", Spans: 2, SelfS: 30e-6, Share: 30.0 / 160},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows %+v, want %+v", rows, want)
	}
	for i := range want {
		r, w := rows[i], want[i]
		if r.Layer != w.Layer || r.Spans != w.Spans || math.Abs(r.SelfS-w.SelfS) > 1e-12 || math.Abs(r.Share-w.Share) > 1e-12 {
			t.Errorf("row %d: %+v, want %+v", i, r, w)
		}
	}
	// With it, program spans outside the operations use up the 30 µs
	// the benchmark spans alone would claim.
	rows = whereTimeGoes(selfTimes(spans))
	if last := rows[len(rows)-1]; last.Layer != "bench" || last.SelfS != 0 {
		t.Errorf("bench row %+v, want 0 s once other tracks cover the operations' time", last)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"exp:fig4": "experiments", "analyze:minife": "core", "simulate:srad": "sim",
		"http:avf": "serve", "campaign:dct": "inject", "bench:request": "bench",
		"lease:abc": "other", "plain": "other",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
