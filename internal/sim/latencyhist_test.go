package sim

import (
	"math"
	"testing"
)

// latHistEqual compares every externally visible property of two
// histograms exactly (no tolerance: the merge contract is exactness).
func latHistEqual(t *testing.T, label string, a, b *LatencyHist) {
	t.Helper()
	if a.N() != b.N() || a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("%s: moments differ: n %d/%d sum %d/%d min %d/%d max %d/%d",
			label, a.N(), b.N(), a.Sum(), b.Sum(), a.Min(), b.Min(), a.Max(), b.Max())
	}
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		t.Fatalf("%s: bucket sets differ: %d vs %d nonzero buckets", label, len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("%s: bucket %d differs: %+v vs %+v", label, i, ab[i], bb[i])
		}
	}
	for p := 0.0; p <= 100.0; p += 0.1 {
		if qa, qb := a.Quantile(p), b.Quantile(p); qa != qb {
			t.Fatalf("%s: Quantile(%.1f) differs: %d vs %d", label, p, qa, qb)
		}
	}
}

// latHistSample draws a value spanning many orders of magnitude,
// including zeros and tiny exact-bucket values.
func latHistSample(rng *RNG) int64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return int64(rng.Intn(16)) // exact sub-latSubCount buckets
	case 2:
		return rng.Int63n(1 << 40) // far tail
	default:
		return rng.Int63n(10_000_000) // typical latency range, ns
	}
}

// TestLatencyHistMergeExact is the property the serving experiments
// depend on: merging N shard histograms (in any order) is exactly the
// histogram one sequential recorder would have produced.
func TestLatencyHistMergeExact(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		rng := NewRNG(uint64(1000 + shards))
		var sequential LatencyHist
		parts := make([]*LatencyHist, shards)
		for i := range parts {
			parts[i] = &LatencyHist{}
		}
		for i := 0; i < 5000; i++ {
			v := latHistSample(rng)
			sequential.Add(v)
			parts[i%shards].Add(v)
		}
		// Forward merge order.
		var fwd LatencyHist
		for _, p := range parts {
			fwd.Merge(p)
		}
		latHistEqual(t, "forward merge", &fwd, &sequential)
		// Reverse order must give the same bytes (commutativity).
		var rev LatencyHist
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		latHistEqual(t, "reverse merge", &rev, &sequential)
	}
}

// TestLatencyHistRestoreRoundTrip: serializing a histogram through
// Buckets/RestoreLatencyHist and merging restored shards is still exact
// — the path trial values take through the harness.
func TestLatencyHistRestoreRoundTrip(t *testing.T) {
	rng := NewRNG(77)
	var direct LatencyHist
	shards := []*LatencyHist{{}, {}, {}}
	for i := 0; i < 3000; i++ {
		v := latHistSample(rng)
		direct.Add(v)
		shards[i%3].Add(v)
	}
	var merged LatencyHist
	for _, s := range shards {
		restored := RestoreLatencyHist(s.Sum(), s.Min(), s.Max(), s.Buckets())
		latHistEqual(t, "single-shard round trip", restored, s)
		merged.Merge(restored)
	}
	latHistEqual(t, "restored-shard merge", &merged, &direct)
}

// TestLatencyHistQuantileMonotone: quantiles are non-decreasing in p,
// bounded by the observed extremes, and exact at the ends.
func TestLatencyHistQuantileMonotone(t *testing.T) {
	rng := NewRNG(42)
	var h LatencyHist
	for i := 0; i < 4000; i++ {
		h.Add(latHistSample(rng))
	}
	prev := int64(-1)
	for p := 0.0; p <= 100.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile(%.2f)=%d < previous %d", p, q, prev)
		}
		if q > h.Max() {
			t.Fatalf("Quantile(%.2f)=%d exceeds max %d", p, q, h.Max())
		}
		prev = q
	}
	if got := h.Quantile(100); got != h.Max() {
		t.Fatalf("Quantile(100)=%d, want exact max %d", got, h.Max())
	}
	if h.Quantile(0) < h.Min() {
		t.Fatalf("Quantile(0)=%d below min %d", h.Quantile(0), h.Min())
	}
}

// TestLatencyHistBucketResolution: bucket upper bounds are within 6.25%
// of the value (16 sub-buckets per octave) for values past the linear
// range, so p99 error is bounded.
func TestLatencyHistBucketResolution(t *testing.T) {
	rng := NewRNG(9)
	for i := 0; i < 100000; i++ {
		v := 16 + rng.Int63n(1<<50)
		var h LatencyHist
		h.Add(v)
		q := h.Quantile(99)
		if q != v { // clamped to max: exact for single observation
			t.Fatalf("single-value quantile %d != %d", q, v)
		}
		idx := latIndex(v)
		if u := latUpper(idx); u < v || float64(u-v) > 0.0625*float64(v) {
			t.Fatalf("bucket %d upper %d too far from %d", idx, u, v)
		}
	}
}

// TestLatencyHistEmptyAndZero: the zero value and zero observations
// behave.
func TestLatencyHistEmptyAndZero(t *testing.T) {
	var h LatencyHist
	if h.Quantile(99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Add(-5) // clamps to zero
	h.Add(0)
	if h.N() != 2 || h.Max() != 0 || h.Quantile(99.9) != 0 {
		t.Fatalf("zero clamp broken: %s", h.String())
	}
	var other LatencyHist
	other.Merge(&h)
	latHistEqual(t, "merge into empty", &other, &h)
}

// TestLatencyHistCountsFollowRange: bucket storage grows with the
// largest observation, a whole octave at a time, up to the full range.
func TestLatencyHistCountsFollowRange(t *testing.T) {
	var h LatencyHist
	h.Add(5_000)
	if n := len(h.counts); n != (latIndex(5_000)|(latSubCount-1))+1 {
		t.Fatalf("5µs histogram holds %d buckets", n)
	}
	h.Add(math.MaxInt64)
	if n := len(h.counts); n != latIndex(math.MaxInt64)+1 || n > latHistBuckets {
		t.Fatalf("full-range histogram holds %d buckets", n)
	}
	if h.Quantile(50) != latUpper(latIndex(5_000)) || h.Quantile(100) != math.MaxInt64 {
		t.Fatalf("quantiles after growth: p50 %d p100 %d", h.Quantile(50), h.Quantile(100))
	}
}
