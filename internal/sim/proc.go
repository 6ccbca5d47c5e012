package sim

import "iter"

// Proc is a simulated process: workload code that can block on virtual
// time (Sleep), on completions, queues and semaphores, while the engine
// interleaves it deterministically with every other process.
//
// A Proc's function runs as a coroutine (iter.Pull): the engine resumes
// it by calling next and it hands control back by calling yield, so
// exactly one of the engine and its processes runs at any moment and
// process code may freely touch shared simulation state without locks.
type Proc struct {
	Eng    *Engine
	name   string
	next   func() (struct{}, bool) // resume: runs the process until it parks or returns
	stop   func()                  // kill: makes a pending yield report false
	yield  func(struct{}) bool     // park: returns control to the engine
	wakeFn func()                  // cached resume thunk: one closure per proc, not per park
	slot   int                     // index in Eng.procs while started and unfinished
}

// procStopped is the panic payload used to unwind a process killed by
// Engine.Close.
type procStopped struct{}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Now reports current virtual time; shorthand for p.Eng.Now().
func (p *Proc) Now() Time { return p.Eng.Now() }

// Go starts a new simulated process running fn. The process begins
// executing at the current virtual instant, after already-queued events
// at this instant have run. It returns a Completion that completes when
// fn returns.
func (e *Engine) Go(name string, fn func(p *Proc)) *Completion {
	done := NewCompletion(e)
	p := &Proc{Eng: e, name: name}
	p.wakeFn = func() { e.resume(p) }
	e.live++
	e.Schedule(0, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(procStopped); !ok {
						panic(r)
					}
				}
			}()
			p.yield = yield
			fn(p)
			p.finish(done)
		})
		e.link(p)
		e.resume(p)
	})
	return done
}

// park returns control to the engine and blocks until resumed. Process
// code calls this (via Sleep/Await/...) after arranging for a wakeup.
// Once Close has stopped the process, yield reports false — also for a
// deferred cleanup that parks again while unwinding — and the process
// unwinds through procStopped.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// unparkAfter schedules this process to resume d from now. The cached
// wakeFn keeps every park/unpark cycle (Sleep, Await, queue and
// semaphore waits) allocation-free.
func (p *Proc) unparkAfter(d Dur) {
	e := p.Eng
	e.At(e.now.Add(d), p.wakeFn)
}

// finish marks the process done; its coroutine returns right after.
func (p *Proc) finish(done *Completion) {
	e := p.Eng
	e.live--
	e.unlink(p)
	done.Complete()
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Dur) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.unparkAfter(d)
	p.park()
}

// Yield lets every other event and process scheduled at the current
// instant run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
