package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// minTailSamples is the sample count below which latency_p99_ms is not
// reported: a percentile is only meaningful with at least ten samples
// beyond it, and p99 has n/100 of them.
const minTailSamples = 1000

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q·n samples at or below it. Every value it returns
// is a measured sample, never an interpolation or a histogram bucket edge.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianDuration is median over durations.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// latencyMetrics turns raw per-job latencies (ms) into the end-to-end
// latency metrics. latency_p99_ms is left out below minTailSamples.
func latencyMetrics(ms []float64, out metrics) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out.set("latency_p50_ms", quantile(s, 0.50), "ms")
	out.set("latency_p90_ms", quantile(s, 0.90), "ms")
	if len(s) >= minTailSamples {
		out.set("latency_p99_ms", quantile(s, 0.99), "ms")
	}
}

// selfNs returns a span's self time: its duration minus the part of its
// interval covered by the union of its children's intervals. Children may
// overlap each other (parallel stages) and are clipped to the parent.
func selfNs(s *obs.Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	end := int64(math.MinInt64)
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return s.EndNs - s.StartNs - covered
}

// stageOf maps a scheduler span name to the stage its self time is booked
// to. The attempt and backoff spans are scheduler bookkeeping around the
// stages, so their self time counts as root self time.
func stageOf(name string) string {
	switch name {
	case "queue", "acquire", "restore", "execute":
		return name
	}
	return "root"
}

// stageSelfNs adds every span's self time in the tree under root to
// out[stageOf(name)]. The stage self times of one job sum to its root
// span's duration.
func stageSelfNs(root *obs.Span, out map[string]int64) {
	out[stageOf(root.Name)] += selfNs(root)
	for _, c := range root.Children {
		stageSelfNs(c, out)
	}
}
