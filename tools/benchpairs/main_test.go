package main

import (
	"strings"
	"testing"
)

func TestQuartilesExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, med, q3 := quartiles(vs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Fatalf("one sample: %v %v %v, want 4 4 4", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "open_p50_ms", Better: "lower", Bound: 0.25}
	higher := metric{Name: "sat_items_per_s", Better: "higher", Bound: 0.25}
	ten := func(base, step float64) []float64 {
		vs := make([]float64, 10)
		for i := range vs {
			vs[i] = base + step*float64(i)
		}
		return vs
	}
	for _, tc := range []struct {
		name           string
		m              metric
		parent, change []float64
		won            int
		verdict        string
	}{
		{"clear gain, lower is better", lower, ten(3.0, 0.01), ten(0.8, 0.01), 10, "better"},
		{"clear gain, higher is better", higher, ten(100, 1), ten(400, 1), 10, "better"},
		{"every pair won but inside the parent's spread", lower, ten(3.0, 0.05), ten(2.99, 0.05), 10, "within bound"},
		{"a tie is won by neither", lower, ten(3.0, 0.01), ten(3.0, 0.01), 0, "within bound"},
		{"worse beyond the bound", lower, ten(3.0, 0.01), ten(4.0, 0.01), 0, "WORSE"},
		{"parent too noisy to say", lower, ten(1.0, 0.5), ten(1.1, 0.5), 0, "UNRESOLVED"},
	} {
		j := judge(tc.m, tc.parent, tc.change)
		if j.won != tc.won || !strings.Contains(j.verdict, tc.verdict) {
			t.Errorf("%s: won %d verdict %q, want %d and %q", tc.name, j.won, j.verdict, tc.won, tc.verdict)
		}
	}
}

func TestSig4(t *testing.T) {
	for x, want := range map[float64]string{
		37210.4: "37210", 5252: "5252", 925.93: "925.9", 19.716: "19.72",
		2.9624: "2.962", 0.84541: "0.8454", 0.031432: "0.0314", 1: "1.000", 0: "0.0000",
	} {
		if got := sig4(x); got != want {
			t.Errorf("sig4(%v) = %q, want %q", x, got, want)
		}
	}
}
