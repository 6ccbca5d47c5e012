package sim

import "testing"

func TestProcSleepAdvancesTime(t *testing.T) {
	e := New()
	defer e.Close()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(100*Microsecond) {
		t.Fatalf("woke at %v, want 100µs", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	e := New()
	defer e.Close()
	var trace []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "a")
			p.Sleep(10)
		}
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 3; i++ {
			trace = append(trace, "b")
			p.Sleep(10)
		}
	})
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcCompletionAwait(t *testing.T) {
	e := New()
	defer e.Close()
	worker := e.Go("worker", func(p *Proc) { p.Sleep(50) })
	var waitedUntil Time
	e.Go("waiter", func(p *Proc) {
		p.Await(worker)
		waitedUntil = p.Now()
	})
	e.Run()
	if waitedUntil != 50 {
		t.Fatalf("waiter resumed at %v, want 50", waitedUntil)
	}
}

func TestProcAwaitCompletedIsImmediate(t *testing.T) {
	e := New()
	defer e.Close()
	c := NewCompletion(e)
	c.Complete()
	c.Complete() // idempotent
	var at Time
	e.Go("w", func(p *Proc) {
		p.Sleep(7)
		p.Await(c)
		at = p.Now()
	})
	e.Run()
	if at != 7 {
		t.Fatalf("await of done completion moved time: %v", at)
	}
}

func TestProcYieldOrdersWithEvents(t *testing.T) {
	e := New()
	defer e.Close()
	var trace []string
	e.Go("p", func(p *Proc) {
		trace = append(trace, "p1")
		e.Schedule(0, func() { trace = append(trace, "ev") })
		p.Yield()
		trace = append(trace, "p2")
	})
	e.Run()
	if len(trace) != 3 || trace[0] != "p1" || trace[1] != "ev" || trace[2] != "p2" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestProcSpawnsProc(t *testing.T) {
	e := New()
	defer e.Close()
	var inner Time
	e.Go("outer", func(p *Proc) {
		p.Sleep(10)
		child := e.Go("inner", func(q *Proc) {
			q.Sleep(5)
			inner = q.Now()
		})
		p.Await(child)
		if p.Now() != 15 {
			t.Errorf("outer resumed at %v, want 15", p.Now())
		}
	})
	e.Run()
	if inner != 15 {
		t.Fatalf("inner finished at %v, want 15", inner)
	}
}

func TestEngineCloseReleasesParkedProcs(t *testing.T) {
	e := New()
	c := NewCompletion(e) // never completed
	e.Go("stuck", func(p *Proc) { p.Await(c) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (deadlocked)", e.LiveProcs())
	}
	e.Close()
	e.Close() // safe to double-close
}

// TestEngineCloseUnwindsProcsOneAtATime: Close kills every parked
// process, and their deferred cleanups write shared simulation state
// without locks, so the unwinds must not overlap (the race detector
// flags this test otherwise) and must all be done when Close returns. A
// cleanup that parks again while unwinding must not wedge the others.
func TestEngineCloseUnwindsProcsOneAtATime(t *testing.T) {
	e := New()
	never := NewCompletion(e)
	cleanups := 0
	for i := 0; i < 8; i++ {
		e.Go("parked", func(p *Proc) {
			defer func() { cleanups++ }()
			defer func() {
				if i%2 == 0 {
					p.Sleep(1) // parks again mid-unwind
				}
			}()
			p.Await(never)
		})
	}
	e.Run()
	e.Close()
	if cleanups != 8 {
		t.Fatalf("%d of 8 cleanups ran before Close returned", cleanups)
	}
}

func TestProcNegativeSleepPanics(t *testing.T) {
	e := New()
	defer e.Close()
	panicked := false
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
				// Re-enter the engine cleanly: the proc still must finish.
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestProcName(t *testing.T) {
	e := New()
	defer e.Close()
	e.Go("redis-server", func(p *Proc) {
		if p.Name() != "redis-server" {
			t.Errorf("Name() = %q", p.Name())
		}
	})
	e.Run()
}
