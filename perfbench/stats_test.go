package main

import (
	"math"
	"testing"
)

// The percentile rule: the highest of p99.9/p99/p90 that leaves ten
// samples beyond it, and no tail at all below 40 samples.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		tail bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 0.75, true}, {99, 1 - 10.0/99, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.tail || math.Abs(q-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.tail)
		}
		if ok && float64(c.n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, q)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// definition the steadiness rule is stated in. Expected values were
// computed with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.15, 3.0}, 2.9375, 3.025, 3.1625},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, g := range []float64{q1, q2, q3} {
			w := []float64{c.q1, c.q2, c.q3}[i]
			if math.Abs(g-w) > 1e-12 {
				t.Errorf("quartiles(%v) cut %d = %v, want %v", c.xs, i+1, g, w)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.9: 3.7} {
		if got := percentile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// The CPU reading counts fields from the last ')', so a command name
// with spaces and parentheses cannot shift utime and stime.
func TestParseStatCPU(t *testing.T) {
	stat := "4242 (iok serve) (x)) S 1 4242 4242 0 -1 4194560 2511 0 0 0 1234 567 0 0 20 0 9 0 123 456 789"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) / clockTicks; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 u s"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tiokserve\nVmPeak:\t  812340 kB\nVmHWM:\t   41236 kB\nVmRSS:\t   40000 kB\n"
	if got, err := parseStatusKB(status, "VmHWM"); err != nil || got != 41236 {
		t.Errorf("VmHWM = %v, %v; want 41236", got, err)
	}
	if got, err := parseStatusKB(status, "VmRSS"); err != nil || got != 40000 {
		t.Errorf("VmRSS = %v, %v; want 40000", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("wrong unit accepted")
	}
}

func TestParseCPUSteal(t *testing.T) {
	stat := "cpu  177989 0 19732 2068339 1386 0 1771 33632 500 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	steal, total, err := parseCPUSteal(stat)
	if err != nil {
		t.Fatal(err)
	}
	if steal != 33632 || total != 177989+19732+2068339+1386+1771+33632 {
		t.Errorf("steal %d total %d", steal, total)
	}
	if _, _, err := parseCPUSteal("cpu0 1 2 3\n"); err == nil {
		t.Error("malformed line accepted")
	}
}

// histMedian sums shard series per bound, differences two scrapes and
// interpolates inside the median's bucket.
func TestHistMedian(t *testing.T) {
	before := map[string]float64{
		`h_bucket{shard="0",le="0.001"}`: 5, `h_bucket{shard="0",le="0.002"}`: 5, `h_bucket{shard="0",le="+Inf"}`: 5,
	}
	after := map[string]float64{
		`h_bucket{shard="0",le="0.001"}`: 7, `h_bucket{shard="0",le="0.002"}`: 9, `h_bucket{shard="0",le="+Inf"}`: 9,
		`h_bucket{shard="1",le="0.001"}`: 0, `h_bucket{shard="1",le="0.002"}`: 4, `h_bucket{shard="1",le="+Inf"}`: 4,
		`h_sum{shard="0"}`: 1, `other_bucket{le="0.001"}`: 100,
	}
	// Deltas: 2 at or below 1 ms, 8 at or below 2 ms; the median (4th of 8)
	// lies 2/6 of the way through the (1 ms, 2 ms] bucket.
	if got, want := histMedian(before, after, "h"), 0.001+0.001*2/6; math.Abs(got-want) > 1e-15 {
		t.Errorf("histMedian = %v, want %v", got, want)
	}
	if got := histMedian(after, after, "h"); got != 0 {
		t.Errorf("histMedian with nothing observed = %v, want 0", got)
	}
}
