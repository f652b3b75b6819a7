package workload

import "testing"

func TestPoissonArrivals(t *testing.T) {
	const n, rate = 100000, 50000.0
	a := PoissonArrivals(n, rate, 7)
	b := PoissonArrivals(n, rate, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PoissonArrivals is not deterministic per seed")
		}
	}
	last := int64(-1)
	for i, v := range a {
		if v < last {
			t.Fatalf("arrival %d = %d precedes %d", i, v, last)
		}
		last = v
	}
	// The mean realized rate should be within a few percent of nominal.
	span := float64(a[n-1]) / 1e9
	realized := float64(n) / span
	if realized < rate*0.95 || realized > rate*1.05 {
		t.Fatalf("realized rate %.0f/s, want ~%.0f/s", realized, rate)
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	r := NewLatencyRecorder(100)
	for i := int64(100); i >= 1; i-- { // insert descending: 1..100
		r.Record(i)
	}
	cases := []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0, 1}}
	for _, tc := range cases {
		if got := r.Percentile(tc.p); got != tc.want {
			t.Fatalf("p%.1f = %d, want %d", tc.p, got, tc.want)
		}
	}
	if m := r.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	if got := (&LatencyRecorder{}).Percentile(99); got != 0 {
		t.Fatalf("empty recorder p99 = %d, want 0", got)
	}
}
