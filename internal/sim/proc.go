package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine-backed body of sequential
// simulation logic that yields to the engine whenever it sleeps or blocks.
// A Proc must only be used from its own body (the function passed to
// Engine.Go).
type Proc struct {
	e        *Engine
	name     string
	id       int
	finished bool
	daemon   bool
	// next switches into the process's coroutine and returns once it parks
	// or exits; yield, called from inside the coroutine, switches back.
	// Both come from one iter.Pull, created when the process starts.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// resumeFn is the pre-bound resume callback scheduled by Sleep and
	// wake; binding it once keeps the park/resume cycle allocation-free.
	resumeFn func()
}

// Go starts a new coroutine-backed process running fn. The process begins
// executing at the current simulation time (as a scheduled event, so the
// caller continues first). The name appears in deadlock and misuse panics.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{e: e, name: name, id: e.procSeq}
	p.resumeFn = func() { e.resume(p) }
	e.live++
	e.At(e.now, func() { e.start(p, fn) })
	return p
}

// GoDaemon starts a background service process (e.g. a file server's
// write-back flusher). Daemons may stay blocked forever without tripping
// the engine's deadlock detector: when only daemons remain parked and the
// event queue is empty, Run simply returns.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := e.Go(name, fn)
	p.daemon = true
	e.live--
	return p
}

// start creates p's coroutine, with fn as its body, and runs it up to its
// first park. The deferred recover runs inside the coroutine, so a
// panicking process is recorded for step to re-raise instead of unwinding
// through the engine.
func (e *Engine) start(p *Proc, fn func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				e.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
			p.finished = true
			if !p.daemon {
				e.live--
			}
		}()
		fn(p)
	})
	e.resume(p)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.e.now }

// park yields control to the engine and blocks until resumed.
func (p *Proc) park() {
	if p.e.cur != p {
		panic("sim: " + p.name + " parking while not the running process")
	}
	p.yield(struct{}{})
}

// suspend parks the process with no scheduled wakeup; some other component
// must eventually call Engine.wake (via a synchronization primitive).
func (p *Proc) suspend() { p.park() }

// Suspend parks the process until some other component calls Resume. It is
// the low-level blocking primitive used by custom synchronization (e.g.
// the flow network's transfer completions).
func (p *Proc) Suspend() { p.suspend() }

// Resume schedules a suspended process to continue at the current time.
// The wakeup flows through the event queue, preserving determinism.
func (p *Proc) Resume() { p.e.wake(p) }

// Sleep advances the process by d simulated seconds. Negative durations
// panic; zero sleeps still round-trip through the event queue, which makes
// them a deterministic yield point.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping for negative duration %g", p.name, d))
	}
	p.e.schedule(p.e.now+d, p.resumeFn)
	p.park()
}

// Yield gives other runnable events at the current time a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
