package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket layout: log-linear with subCount sub-buckets per power
// of two. Values below subCount land in exact unit buckets; a value x >=
// subCount lands in bucket e*subCount + (x>>e) where e positions the top
// subBits+1 bits of x — two shifts and an add, no float math on the record
// path. numBuckets covers values up to 2^42 (≈ 73 minutes in nanoseconds);
// anything larger clamps into the top bucket.
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = (42 - subBits) * subCount // 312
)

// Histogram is a fixed-bucket log-scale histogram of non-negative integer
// samples (by convention nanoseconds). Observation is one atomic add;
// quantiles walk the fixed bucket array. The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(x uint64) int {
	if x < subCount {
		return int(x)
	}
	e := bits.Len64(x) - subBits - 1
	idx := e*subCount + int(x>>uint(e))
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketUpper returns the exclusive upper bound of bucket i — the
// conservative representative value quantiles report.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i) + 1
	}
	e := i/subCount - 1
	m := uint64(i%subCount + subCount)
	return (m + 1) << uint(e)
}

// Observe records one sample.
func (h *Histogram) Observe(x uint64) {
	h.counts[bucketIndex(x)].Add(1)
	h.sum.Add(x)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile returns the nearest-rank q-quantile (q in [0, 1]) as the upper
// bound of the bucket holding that rank — within one bucket width (~12.5%)
// of the exact order statistic, in O(buckets) regardless of sample count.
// Zero samples yield zero.
func (h *Histogram) Quantile(q float64) uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Same nearest-rank convention the pre-histogram sort used:
	// index q*(n-1) of the sorted sample.
	rank := uint64(q * float64(total-1))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// Labels is an ordered label set attached to one metric series.
type Labels []Label

// Label is one key=value pair.
type Label struct{ Key, Value string }

// L builds one label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// String renders the {k="v",...} suffix ("" for no labels).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	s := "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return s + "}"
}

// series is one registered metric instance.
type series struct {
	labels Labels
	c      *Counter
	cf     func() float64
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups series sharing one metric name.
type family struct {
	name, help, kind string
	series           []*series
}

// Registry holds registered metrics and renders them in Prometheus text
// exposition format. Registration happens at construction time (it takes
// a lock); the record path goes through the returned Counter/Gauge/
// Histogram pointers directly and never touches the registry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, kind string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", &series{labels: labels, c: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the view-over-existing-state form, so subsystems that
// already count (store aggregates, the fault injector's fired counters)
// are exported without double bookkeeping. fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "counter", &series{labels: labels, cf: fn})
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", &series{labels: labels, g: g})
	return g
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "gauge", &series{labels: labels, gf: fn})
}

// Histogram registers and returns a histogram series (nanosecond samples,
// exposed in seconds per Prometheus convention).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", &series{labels: labels, h: h})
	return h
}

// RegisterHistogram exports an externally owned histogram (one the caller
// also queries directly, e.g. the store's latency histogram) under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.add(name, help, "histogram", &series{labels: labels, h: h})
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (families in registration order, HELP/TYPE once per
// family, histogram buckets cumulative with `le` in seconds, only
// non-empty buckets emitted plus +Inf).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.c.Load())
		return err
	case s.cf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.cf()))
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.g.Load())
		return err
	case s.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.gf()))
		return err
	case s.h != nil:
		return writeHistogram(w, name, s.labels, s.h)
	}
	return nil
}

// writeHistogram emits the cumulative bucket series. Bucket values are
// recorded in nanoseconds; `le` bounds are exported in seconds.
func writeHistogram(w io.Writer, name string, labels Labels, h *Histogram) error {
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		le := float64(bucketUpper(i)) / 1e9
		ls := append(append(Labels{}, labels...), L("le", formatFloat(le)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, cum); err != nil {
			return err
		}
	}
	inf := append(append(Labels{}, labels...), L("le", "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, inf, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.Sum())/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}

// formatFloat renders a float without scientific noise for round values.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
