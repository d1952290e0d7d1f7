package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, with its rank; with ten samples or fewer there is
// none, and the maximum is returned with rank 100.
func tail(xs []float64) (value float64, pct int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11 // exactly ten samples sort after index i
	return s[i], int(math.Floor(100 * float64(i+1) / float64(n)))
}

// distLine renders a timing distribution: the median, the upper
// quartile, the tail percentile, and the sample count.
func distLine(name, unit string, xs []float64) string {
	t, pct := tail(xs)
	label := fmt.Sprintf("p%d", pct)
	if pct == 100 {
		label = "max"
	}
	return fmt.Sprintf("dist %s p50=%.6g p75=%.6g %s=%.6g %s n=%d",
		name, median(xs), quantile(xs, 0.75), label, t, unit, len(xs))
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
