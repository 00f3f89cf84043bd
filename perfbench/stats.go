package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples: the smallest value with at least p% of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p·n/100); the small allowance keeps 99.9·20000/100 from rounding
// up past 19980.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's rank, i.e. the samples that the percentile excludes.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLadder is the set of percentiles the tail rule chooses from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is a tail-latency report: the percentile chosen, its value and
// the number of samples it was computed from.
type tail struct {
	P     float64
	Value float64
	N     int
}

// tailOf applies the percentile rule: report the highest percentile of
// the ladder that has at least ten samples beyond it, with the sample
// count. With fewer than eleven samples no percentile qualifies and the
// report is empty (P = 0).
func tailOf(samples []float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if beyond(len(s), p) >= 10 {
			return tail{P: p, Value: percentile(s, p), N: len(s)}
		}
	}
	return tail{N: len(s)}
}

// windowSeconds is the length of one measurement window.
const windowSeconds = 2

// windows is how many windows of windowSeconds a timed phase holds (at
// least one).
func windows(length time.Duration) int {
	if k := int(length.Seconds() / windowSeconds); k > 1 {
		return k
	}
	return 1
}

// windowed splits a timed phase of length seconds from start into k
// equal windows by the time each operation completed (closed loop) or
// fell due (open loop), and returns the median over the windows of the
// window's operation rate and of its median latency. Operations outside
// the phase are left out. On a shared host a burst of load from another
// guest slows one or two windows; the median over windows leaves such a
// burst out, where one figure over the whole phase would absorb it.
func windowed(at, lat []float64, start, length float64, k int) (rate, p50 float64) {
	width := length / float64(k)
	lats := make([][]float64, k)
	for i, t := range at {
		if j := int(math.Floor((t - start) / width)); j >= 0 && j < k {
			lats[j] = append(lats[j], lat[i])
		}
	}
	rates := make([]float64, k)
	var p50s []float64
	for j, l := range lats {
		rates[j] = float64(len(l)) / width
		if len(l) > 0 {
			p50s = append(p50s, median(l))
		}
	}
	return median(rates), median(p50s)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the benchmark's metric-name grammar: it starts with a
// letter or digit and uses only letters, digits, '_', '.' and '-', at
// most 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the unit grammar: at most 16 letters, digits, '_', '/',
// '%', '.' and '-'.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
