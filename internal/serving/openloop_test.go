package serving

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// driveLoop runs l to completion on a fresh engine, spawning its workers
// as plain engine processes.
func driveLoop[R any](t *testing.T, l openLoop[R]) loopStats {
	t.Helper()
	eng := sim.New()
	defer eng.Close()
	l.spawn = eng.Go
	var st loopStats
	var err error
	done := eng.Go("driver", func(p *sim.Proc) { st, err = l.run(p) })
	eng.Run()
	if !done.Done() {
		t.Fatalf("open loop deadlocked (%d live procs)", eng.LiveProcs())
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// counter returns a next func drawing 1, 2, 3, ...
func counter() func() int {
	i := 0
	return func() int { i++; return i }
}

// TestOpenLoopRejectionsAccountedOnce: a serve that rejects every k-th
// request leaves completed + rejected == requests, and only the
// completions reach the histogram.
func TestOpenLoopRejectionsAccountedOnce(t *testing.T) {
	const requests, k = 300, 4
	var okSum int64
	st := driveLoop(t, openLoop[int]{
		name: "w", workers: 2, rps: 200_000, seed: 1, requests: requests,
		next: counter(),
		serve: func(p *sim.Proc, r int) bool {
			if r%k == 0 {
				return false
			}
			p.Sleep(3 * sim.Microsecond)
			return true
		},
		done: func(_ *sim.Proc, r int, lat sim.Dur, ok bool) {
			if ok != (r%k != 0) {
				t.Errorf("request %d reported ok=%v", r, ok)
			}
			if ok {
				okSum += int64(lat)
			}
		},
	})
	if st.rejected != requests/k || st.completed != requests-requests/k {
		t.Fatalf("completed %d + rejected %d, want %d + %d", st.completed, st.rejected, requests-requests/k, requests/k)
	}
	if st.lat.N() != int64(st.completed) || st.lat.Sum() != okSum {
		t.Fatalf("histogram holds n=%d sum=%d, want the %d completions summing to %d",
			st.lat.N(), st.lat.Sum(), st.completed, okSum)
	}
}

// TestOpenLoopPerWorkerQueues: with one queue per worker, each worker
// serves exactly the requests routed to its queue.
func TestOpenLoopPerWorkerQueues(t *testing.T) {
	const workers, requests = 3, 240
	var served [workers]int
	st := driveLoop(t, openLoop[int]{
		name: "w", workers: workers, rps: 500_000, seed: 2, requests: requests,
		next:  counter(),
		route: func(r int) int { return r % workers },
		serve: func(p *sim.Proc, r int) bool {
			if want := fmt.Sprintf("w-%d", r%workers); p.Name() != want {
				t.Errorf("request %d (queue %d) served by %s", r, r%workers, p.Name())
			}
			served[r%workers]++
			p.Sleep(2 * sim.Microsecond)
			return true
		},
	})
	for w, n := range served {
		if n != requests/workers {
			t.Fatalf("worker %d served %d requests, want %d", w, n, requests/workers)
		}
	}
	if st.completed != requests {
		t.Fatalf("completed %d of %d", st.completed, requests)
	}
}

// TestOpenLoopLowLoadLatencyIsServiceCost: far below capacity no request
// waits, so every recorded latency is exactly the fixed service cost.
func TestOpenLoopLowLoadLatencyIsServiceCost(t *testing.T) {
	const requests, cost = 200, 1500 * sim.Nanosecond
	st := driveLoop(t, openLoop[int]{
		name: "w", workers: 2, rps: 1000, seed: 3, requests: requests,
		next: counter(),
		serve: func(p *sim.Proc, _ int) bool {
			p.Sleep(cost)
			return true
		},
	})
	if st.lat.N() != requests || st.lat.Min() != int64(cost) || st.lat.Max() != int64(cost) ||
		st.lat.Sum() != requests*int64(cost) {
		t.Fatalf("latencies %v, want all %d exactly %v", st.lat, requests, cost)
	}
	if st.window <= 0 {
		t.Fatalf("measured window %vs, want positive", st.window)
	}
}

// TestOpenLoopMaxQueueIsDeepest: MaxQueue is the deepest any queue got,
// checked against an independent count of requests waiting per queue
// (routed, not yet taken up by serve) plus the close sentinels, which
// join each queue right after the last arrival.
func TestOpenLoopMaxQueueIsDeepest(t *testing.T) {
	const workers, requests = 2, 200
	var waiting, deepest [workers]int
	queueOf := func(r int) int { return min(r%4, 1) } // three quarters of the load on queue 1
	route := func(r int) int {
		q := queueOf(r)
		waiting[q]++
		deepest[q] = max(deepest[q], waiting[q])
		return q
	}
	st := driveLoop(t, openLoop[int]{
		name: "w", workers: workers, rps: 2_000_000, seed: 4, requests: requests,
		next:  counter(),
		route: route,
		serve: func(p *sim.Proc, r int) bool {
			waiting[queueOf(r)]--
			p.Sleep(2 * sim.Microsecond)
			return true
		},
	})
	want := 0
	for q := range waiting {
		want = max(want, deepest[q], waiting[q]+1)
	}
	if want < 10 {
		t.Fatalf("overload built queues only %d deep; the test needs real queueing", want)
	}
	if st.maxQueue != want {
		t.Fatalf("maxQueue = %d, want the deepest queue %d", st.maxQueue, want)
	}
}

// TestNonFiniteUtilRejected: every entry point rejects a NaN or infinite
// offered load as a configuration error instead of feeding it to the
// arrival sampler.
func TestNonFiniteUtilRejected(t *testing.T) {
	entries := map[string]func(util float64) error{
		"Run": func(util float64) error {
			_, err := Run(Config{Workload: KV, Nodes: 2, Util: util, Requests: 10})
			return err
		},
		"RunChurn": func(util float64) error {
			_, err := RunChurn(ChurnConfig{Nodes: 4, Util: util, Requests: 10})
			return err
		},
		"RunTenancy": func(util float64) error {
			_, err := RunTenancy(TenancyConfig{Util: util, Requests: 10})
			return err
		},
	}
	for name, run := range entries {
		for _, util := range []float64{math.NaN(), math.Inf(1)} {
			if err := run(util); err == nil {
				t.Errorf("%s accepted Util=%v", name, util)
			}
		}
	}
}
