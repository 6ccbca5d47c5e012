package serving

import (
	"fmt"
	"math"

	"repro/internal/node"
	"repro/internal/sim"
)

// openLoop is the measured phase every scenario shares: a seeded
// open-loop arrival stream feeds a request queue, workers on the
// serving node drain it, and every served request's end-to-end latency
// (arrival instant to response, queueing included) lands in one
// histogram. The engine runs one process at a time, so the workers share
// the histogram and counters without locks or per-worker shards.
// Scenarios supply only how a request is drawn and served.
type openLoop[R any] struct {
	spawn    func(name string, fn func(*sim.Proc)) *sim.Completion // the serving node's Run
	name     string                                                // worker process name prefix
	workers  int
	arrivals ArrivalSpec
	rps      float64 // mean arrival rate, requests per second of virtual time
	seed     uint64  // arrival-stream seed
	requests int

	// next draws the request arriving now.
	next func() R
	// route, when set, gives every worker its own queue and picks the one
	// a request joins (KV's per-server dispatch); nil means one shared
	// queue.
	route func(R) int
	// serve handles one request on worker p; false rejects it.
	serve func(p *sim.Proc, r R) bool
	// done, when set, sees every request as it leaves: its end-to-end
	// latency and whether it was served.
	done func(p *sim.Proc, r R, lat sim.Dur, ok bool)
}

// loopStats is one open-loop phase's accounting.
type loopStats struct {
	lat       *sim.LatencyHist // served requests only
	completed int
	rejected  int
	window    float64 // seconds from the first arrival slot to the last completion
	maxQueue  int     // deepest any request queue got
}

// run drives the phase from pr: it spawns the workers, offers every
// request, drains the queues with one close sentinel per worker, and
// checks that each offered request was served or rejected exactly once.
func (l openLoop[R]) run(pr *sim.Proc) (loopStats, error) {
	type job struct {
		at    sim.Time
		r     R
		close bool
	}
	queues := make([]*sim.Queue[job], 1)
	if l.route != nil {
		queues = make([]*sim.Queue[job], l.workers)
	}
	for i := range queues {
		queues[i] = sim.NewQueue[job](pr.Eng)
	}
	st := loopStats{lat: &sim.LatencyHist{}}
	var lastDone sim.Time
	grp := sim.NewGroup(pr.Eng)
	for w := 0; w < l.workers; w++ {
		q := queues[w%len(queues)]
		grp.Add(1)
		l.spawn(fmt.Sprintf("%s-%d", l.name, w), func(wp *sim.Proc) {
			defer grp.Done()
			for {
				j := q.Pop(wp)
				if j.close {
					return
				}
				ok := l.serve(wp, j.r)
				lat := wp.Now().Sub(j.at)
				if ok {
					st.lat.AddDur(lat)
					st.completed++
					if wp.Now() > lastDone {
						lastDone = wp.Now()
					}
				} else {
					st.rejected++
				}
				if l.done != nil {
					l.done(wp, j.r, lat, ok)
				}
			}
		})
	}

	arr := newSampler(l.arrivals, l.rps, sim.NewRNG(l.seed))
	start := pr.Now()
	for i := 0; i < l.requests; i++ {
		pr.Sleep(arr.Next())
		r, q := l.next(), 0
		if l.route != nil {
			q = l.route(r)
		}
		queues[q].Push(pr, job{at: pr.Now(), r: r})
	}
	for w := 0; w < l.workers; w++ {
		queues[w%len(queues)].Push(pr, job{close: true})
	}
	grp.Wait(pr)

	st.window = lastDone.Sub(start).Seconds()
	for _, q := range queues {
		st.maxQueue = max(st.maxQueue, q.MaxDepth())
	}
	// Exactly-once accounting: open-loop arrivals may queue, stall
	// through an outage or be turned away, but none may vanish.
	if st.completed+st.rejected != l.requests {
		return st, fmt.Errorf("serving: %s lost requests: %d completed + %d rejected != %d offered",
			l.name, st.completed, st.rejected, l.requests)
	}
	return st, nil
}

// runScenario runs body as the scenario's driving process on n and steps
// the engine only until body returns: agents, background tenants,
// recovery sweeps and pending chaos keep the event queue alive forever.
// throttle, when set, runs between steps, outside virtual time.
func runScenario(n *node.Node, name string, throttle func(), body func(*sim.Proc) error) error {
	var err error
	done := n.Run("serving-"+name, func(p *sim.Proc) { err = body(p) })
	for !done.Done() && n.Eng.Step() {
		if throttle != nil {
			throttle()
		}
	}
	if err != nil {
		return err
	}
	if !done.Done() {
		return fmt.Errorf("serving: %s scenario deadlocked (%d live procs)", name, n.Eng.LiveProcs())
	}
	return nil
}

// checkLoad rejects a run with no measured requests or an offered load
// that is not a positive, finite fraction of capacity (a NaN or infinite
// Util would reach the arrival sampler as a meaningless rate).
func checkLoad(requests int, util float64) error {
	if requests <= 0 {
		return fmt.Errorf("serving: Requests must be positive, got %d", requests)
	}
	if !(util > 0) || math.IsInf(util, 1) {
		return fmt.Errorf("serving: Util must be positive and finite, got %v", util)
	}
	return nil
}
