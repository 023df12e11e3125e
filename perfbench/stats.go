package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending sample, the "type 7" definition numpy and R default to.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile picks the highest reportable percentile for a sample of n:
// the highest of p99.9, p99 and p90 that leaves at least ten samples
// beyond it. Below 40 samples no tail is reported at all (ok = false):
// the median alone is the honest summary.
func tailQuantile(n int) (q float64, ok bool) {
	switch {
	case n < 40:
		return 0, false
	case n >= 10000:
		return 0.999, true
	case n >= 1000:
		return 0.99, true
	case n >= 100:
		return 0.9, true
	}
	// 40..99 samples: the tail that still leaves ten samples beyond it.
	return 1 - 10/float64(n), true
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, which is what the steadiness rule is stated
// in: m = n+1, cut i sits at position i*m/4 (1-based), interpolated.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// clockTicks is Linux's USER_HZ, the unit of the utime/stime fields in
// /proc/<pid>/stat. It is 100 on every mainstream architecture and not
// queryable without cgo.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", stat)
	}
	// After ") " come fields 3.. : state(3) ppid(4) ... utime(14) stime(15).
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime %q: %v", f[11], err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime %q: %v", f[12], err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseCPUSteal returns the steal and total jiffies of the aggregate
// "cpu" line of /proc/stat: time the hypervisor ran someone else while
// this machine's CPUs wanted to run.
func parseCPUSteal(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: field %d: %v", i+1, err)
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line of
// /proc/<pid>/status, such as VmRSS (resident set).
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// histMedian is the median of what a Prometheus histogram family
// observed between two scrapes, in the unit of its buckets. The
// cumulative bucket counts of every series (every shard label) are
// summed per upper bound, differenced, and the median is interpolated
// linearly inside the bucket that holds it, as histogram_quantile does.
// It is 0 when nothing was observed.
func histMedian(before, after map[string]float64, family string) float64 {
	prefix := family + "_bucket{"
	cum := map[float64]float64{}
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		_, rest, ok := strings.Cut(key, `le="`)
		if !ok {
			continue
		}
		le, _, _ := strings.Cut(rest, `"`)
		ub, err := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		cum[ub] += v - before[key]
	}
	bounds := make([]float64, 0, len(cum))
	for ub := range cum {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	half := cum[bounds[len(bounds)-1]] / 2
	lo, below := 0.0, 0.0
	for _, ub := range bounds {
		if c := cum[ub]; c >= half {
			if math.IsInf(ub, 1) {
				return lo
			}
			return lo + (ub-lo)*(half-below)/(c-below)
		}
		lo, below = ub, cum[ub]
	}
	return lo
}
