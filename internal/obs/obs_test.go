package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexMonotonicContinuous(t *testing.T) {
	// Every bucket's samples must map inside it, indices must be
	// non-decreasing in the sample, and bucketUpper must be strictly
	// increasing so quantiles are well ordered.
	prev := -1
	for x := uint64(0); x < 1<<20; x++ {
		i := bucketIndex(x)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic: x=%d idx=%d prev=%d", x, i, prev)
		}
		if x >= bucketUpper(i) {
			t.Fatalf("x=%d >= upper bound %d of its own bucket %d", x, bucketUpper(i), i)
		}
		if i > 0 && x < bucketUpper(i-1) {
			t.Fatalf("x=%d below upper bound %d of previous bucket %d", x, bucketUpper(i-1), i-1)
		}
		prev = i
	}
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not strictly increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
	// Huge values clamp into the top bucket instead of going out of range.
	if got := bucketIndex(1 << 63); got != numBuckets-1 {
		t.Fatalf("2^63 should clamp to top bucket, got %d", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mix of scales: microseconds to seconds, in ns.
		x := uint64(rng.Intn(1000)+1) * uint64([]int{1e3, 1e4, 1e6}[rng.Intn(3)])
		samples = append(samples, x)
		h.Observe(x)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q)
		// The bucketed quantile reports the exclusive upper bound of the
		// bucket holding the rank: exact < got <= exact*(1+2^-subBits)+1.
		if got <= exact || float64(got) > float64(exact)*(1+1.0/subCount)+1 {
			t.Fatalf("q=%v: got %d, exact %d (outside one bucket width)", q, got, exact)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count = %d, want 20000", h.Count())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(uint64(rng.Intn(1 << 30)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scand_test_total", "test counter", L("kind", "spy"))
	c.Add(3)
	g := r.Gauge("scand_test_depth", "test gauge")
	g.Set(7)
	r.CounterFunc("scand_test_view", "view counter", func() float64 { return 42 })
	h := r.Histogram("scand_test_latency_seconds", "test histogram")
	h.Observe(1500) // 1.5 µs
	h.Observe(2_000_000_000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP scand_test_total test counter",
		"# TYPE scand_test_total counter",
		`scand_test_total{kind="spy"} 3`,
		"# TYPE scand_test_depth gauge",
		"scand_test_depth 7",
		"scand_test_view 42",
		"# TYPE scand_test_latency_seconds histogram",
		`scand_test_latency_seconds_bucket{le="+Inf"} 2`,
		"scand_test_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals _count, and each
	// emitted bucket line's value is non-decreasing.
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "scand_test_latency_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = v
	}
}

func fmtSscan(line string, v *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseUint(line[i+1:])
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errNonDigit
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

var errNonDigit = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "non-digit in count" }

func TestSpanTreeAndCanonical(t *testing.T) {
	r := NewRecorder(1, 8)
	tr := r.Start(4, A("kind", "spy"), A("seed", "99"))
	if tr == nil {
		t.Fatal("sampled trace is nil")
	}
	root := tr.Root()
	q := root.Child("queue")
	q.End()
	att := root.Child("attempt")
	att.Annotate("attempt", "1")
	acq := att.Child("acquire")
	acq.Annotate("session", "built")
	acq.End()
	ex := att.Child("execute")
	ex.SetSim(12.5)
	ex.End()
	att.End()
	root.End()

	snap := tr.Snapshot()
	if snap.Name != "job" || len(snap.Children) != 2 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	if snap.Children[1].Children[1].SimSec != 12.5 {
		t.Fatalf("sim sec not recorded: %+v", snap.Children[1].Children[1])
	}
	if snap.Children[0].EndNs < snap.Children[0].StartNs {
		t.Fatal("span end before start")
	}

	// Canonical strips every wall field but keeps structure, attrs, sim.
	can, err := tr.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Span
	if err := json.Unmarshal(can, &decoded); err != nil {
		t.Fatal(err)
	}
	var checkWall func(s *Span)
	checkWall = func(s *Span) {
		if s.StartNs != 0 || s.EndNs != 0 {
			t.Fatalf("canonical span %q has wall fields: %+v", s.Name, s)
		}
		for _, c := range s.Children {
			checkWall(c)
		}
	}
	checkWall(&decoded)
	if decoded.Children[1].Children[1].SimSec != 12.5 {
		t.Fatal("canonical form lost sim time")
	}
	// Canonical is stable: serializing twice yields identical bytes.
	can2, _ := tr.CanonicalJSON()
	if !bytes.Equal(can, can2) {
		t.Fatal("canonical serialization not stable")
	}
}

func TestRecorderSamplingAndEviction(t *testing.T) {
	r := NewRecorder(3, 4)
	for id := uint64(1); id <= 30; id++ {
		tr := r.Start(id)
		if id%3 == 0 && tr == nil {
			t.Fatalf("job %d should be sampled", id)
		}
		if id%3 != 0 && tr != nil {
			t.Fatalf("job %d should not be sampled", id)
		}
	}
	if r.Started() != 10 {
		t.Fatalf("started = %d, want 10", r.Started())
	}
	if r.Len() != 4 {
		t.Fatalf("retained = %d, want cap 4", r.Len())
	}
	// FIFO: only the newest 4 sampled IDs (21, 24, 27, 30) survive.
	for _, id := range []uint64{21, 24, 27, 30} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("job %d evicted too early", id)
		}
	}
	if _, ok := r.Get(18); ok {
		t.Fatal("job 18 should have been evicted")
	}
}

func TestNilDisabledState(t *testing.T) {
	if r := NewRecorder(0, 16); r != nil {
		t.Fatal("sample=0 must return the nil disabled recorder")
	}
	var r *Recorder
	tr := r.Start(1, A("kind", "spy"))
	if tr != nil {
		t.Fatal("nil recorder must hand out nil traces")
	}
	// Every call below must be a safe no-op on nils.
	root := tr.Root()
	c := root.Child("queue")
	c.Annotate("k", "v")
	c.SetSim(1)
	c.End()
	root.End()
	if s := tr.Snapshot(); s != nil {
		t.Fatal("nil trace snapshot must be nil")
	}
	if b, err := tr.CanonicalJSON(); err != nil || b != nil {
		t.Fatal("nil trace canonical JSON must be nil, nil")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("nil recorder Get must miss")
	}
	if r.Started() != 0 || r.Len() != 0 {
		t.Fatal("nil recorder counters must be zero")
	}
}

// TestDisabledPathZeroAlloc pins the disabled-instrumentation hot path at
// zero allocations: with a nil recorder, a full per-job span choreography
// must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Recorder
	var h Histogram
	var c Counter
	allocs := testing.AllocsPerRun(1000, func() {
		tr := r.Start(7)
		root := tr.Root()
		q := root.Child("queue")
		q.End()
		a := root.Child("attempt")
		a.Annotate("attempt", "1")
		a.SetSim(3)
		a.End()
		root.End()
		h.Observe(1234567)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v times per run, want 0", allocs)
	}
}
