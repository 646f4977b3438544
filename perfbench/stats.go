package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailStat is the tail rule of the benchmark: the highest percentile of a
// sample that still has at least minBeyond samples strictly above it.
type tailStat struct {
	Percentile float64 `json:"percentile"` // e.g. 90 for n=100, minBeyond=10
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"` // sample count the percentile was taken over
	Defined    bool    `json:"defined"` // false when n <= minBeyond (Value is then the maximum)
}

// tail applies the tail rule to xs. With n samples sorted ascending, the
// value at index n-1-minBeyond is the highest one with minBeyond samples
// beyond it; it sits at percentile 100·(n-minBeyond)/n.
func tail(xs []float64, minBeyond int) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	if n <= minBeyond {
		return tailStat{Percentile: 100, Value: s[n-1], Samples: n}
	}
	return tailStat{
		Percentile: 100 * float64(n-minBeyond) / float64(n),
		Value:      s[n-1-minBeyond],
		Samples:    n,
		Defined:    true,
	}
}

// tally counts the benchmark's operations: the timed set-ups, the stepping
// and every output check are one operation each, and each that failed is
// one failure.
type tally struct {
	Attempted, Failed int
}

func (t *tally) add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// failedFrac is failures ÷ operations attempted (0 when nothing ran).
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// shares divides each region's time by the wall time it was measured
// against and returns the per-region shares plus the unattributed share,
// 1 − Σ regions ÷ wall. Nested regions must already be exclusive (as the
// solver's timers are), or the unattributed share goes negative.
func shares(regions map[string]float64, wall float64) (map[string]float64, float64) {
	out := make(map[string]float64, len(regions))
	sum := 0.0
	for name, sec := range regions {
		if wall > 0 {
			out[name] = sec / wall
		}
		sum += sec
	}
	if wall <= 0 {
		return out, 0
	}
	return out, 1 - sum/wall
}

// busyShare is pool busy time ÷ (workers × region wall): the fraction of
// the pool's capacity over the instrumented regions that ran tiles.
func busyShare(busy float64, workers int, regionWall float64) float64 {
	if workers <= 0 || regionWall <= 0 {
		return 0
	}
	return busy / (float64(workers) * regionWall)
}
