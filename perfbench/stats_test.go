package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
		ok         bool
	}{
		{n: 0},
		{n: 1, value: 1, percentile: 100},
		{n: 10, value: 10, percentile: 100},
		{n: 11, value: 1, percentile: 100.0 / 11, ok: true},
		{n: 20, value: 10, percentile: 50, ok: true},
		{n: 100, value: 90, percentile: 90, ok: true},
		{n: 1000, value: 990, percentile: 99, ok: true},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || got.Percentile != tc.percentile || got.OK != tc.ok || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %v percentile %v ok %v", tc.n, got, tc.value, tc.percentile, tc.ok)
		}
		if !got.OK {
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children (two workers) cover [10, 60) and [70, 80).
		{ID: 2, Parent: 1, Name: "cmp", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "cmp", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "cmp", Start: 70, End: 80},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 4, Name: "trace", Start: 75, End: 90},
	}
	got := summarize(spans)
	ns := func(x int64) float64 { return float64(x) / 1e9 }
	if op := got["op"]; op.Count != 1 || op.TotalS != ns(100) || op.SelfS != ns(40) {
		t.Errorf("op: %+v, want total 100ns self 40ns", op)
	}
	if c := got["cmp"]; c.Count != 3 || c.TotalS != ns(70) || c.SelfS != ns(65) {
		t.Errorf("cmp: %+v, want total 70ns self 65ns", c)
	}
	if tr := got["trace"]; tr.SelfS != ns(15) {
		t.Errorf("trace: %+v, want self 15ns", tr)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.begin(0, "x")
	if d := sp.end(); d != 0 || tr.spans() != nil {
		t.Errorf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin(0, "root")
	child := tr.begin(root.id, "child")
	child.end()
	root.end()
	got := tr.spans()
	if len(got) != 2 || got[0].Parent != root.id || got[1].ID != root.id {
		t.Errorf("spans = %+v", got)
	}
}
