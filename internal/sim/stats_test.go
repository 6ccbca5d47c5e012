package sim

import "testing"

func TestHistPercentiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d", h.N())
	}
	p50 := h.Percentile(50)
	if p50 < 500 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within [500,1024]", p50)
	}
	p100 := h.Percentile(100)
	if p100 < 1000 {
		t.Fatalf("p100 = %d, want >= 1000", p100)
	}
	if h.Percentile(0) <= 0 {
		t.Fatalf("p0 = %d, want positive bucket bound", h.Percentile(0))
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.N() != 1 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Percentile(100) > 1 {
		t.Fatalf("negative observation landed in a high bucket")
	}
}

func TestHistEmptyPercentile(t *testing.T) {
	var h Hist
	if h.Percentile(99) != 0 {
		t.Fatal("empty histogram percentile should be 0")
	}
}

func TestScoreboard(t *testing.T) {
	var s Scoreboard
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	if s.Get("b") != 5 || s.Get("a") != 1 || s.Get("zzz") != 0 {
		t.Fatalf("values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1 << 40: 40}
	for in, want := range cases {
		if got := log2(in); got != want {
			t.Errorf("log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHistExactMoments(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty Mean/Max = %v/%v, want 0/0", h.Mean(), h.Max())
	}
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(v)
	}
	if h.N() != 8 || h.Mean() != 5 || h.Max() != 9 {
		t.Fatalf("N/Mean/Max = %d/%v/%v, want 8/5/9", h.N(), h.Mean(), h.Max())
	}
}
