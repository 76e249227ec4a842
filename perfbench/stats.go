package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks (0 for an empty set).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailQ is the highest quantile, at most p99, that leaves at least ten
// samples beyond it: with fewer than 1,000 samples a p99 is one or two
// outliers, not a percentile.
func tailQ(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// tail returns the tailQ quantile of v. With enough samples for a p99 in
// each of tailWindows consecutive windows, it returns the median of the
// windows' p99s instead, so one pause or burst of neighbour load moves the
// tail of one window, not the run's.
func tail(v []float64) float64 {
	const tailWindows = 8
	if len(v) < tailWindows*1000 {
		return quantile(v, tailQ(len(v)))
	}
	per := make([]float64, tailWindows)
	for i := range per {
		per[i] = quantile(v[i*len(v)/tailWindows:(i+1)*len(v)/tailWindows], 0.99)
	}
	return median(per)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta subtracts two metrics.Counters snapshots.
func counterDelta(after, before map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}
