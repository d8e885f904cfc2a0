package behavior

import "math"

// Unbounded reports whether the timeline extends lazily (no fixed horizon).
func (tl *Timeline) Unbounded() bool { return tl.gen != nil }

// CoveredUntil returns the time up to which the schedule is materialized:
// ActiveAt strictly below it never mutates the timeline. Bounded timelines
// are complete, so they report +Inf.
func (tl *Timeline) CoveredUntil() float64 {
	if tl.gen == nil {
		return math.Inf(1)
	}
	return tl.gen.frontier
}
