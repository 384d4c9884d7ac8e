//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated processes are coroutines (iter.Pull): a process runs only when
// the kernel resumes it, and it hands control back by blocking, so exactly
// one of the kernel loop or a single process executes at any instant. A
// switch is a direct coroutine transfer with no scheduler round trip and no
// allocation. All simulator state may therefore be accessed without locks,
// and a run is bit-for-bit reproducible given the same seed.
//
// Time is virtual. Processes advance it only by blocking: Sleep, queue
// operations (see Queue), and resource acquisition (see Resource). Events
// scheduled for the same instant fire in scheduling order (FIFO), which
// keeps runs deterministic.
//
// A Queue.GetTimeout deadline is a cancelable timer rather than a plain
// event: a delivery that beats it removes it from the kernel at once. The
// kernel therefore holds only actions that can still do something, and a
// timeout that was beaten does not extend Run.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator instance. Create one with New, add
// processes with Spawn, and drive it with Run or RunUntil.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	timers timerHeap
	rng    *rand.Rand

	live     int // processes spawned and not yet finished
	panicVal any
	panicLoc string
	stopped  bool
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. It must only be
// used from kernel callbacks or running processes.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (s *Sim) Live() int { return s.live }

// event is a scheduled kernel action.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before orders kernel actions by time, then by scheduling order.
func before(at1 time.Duration, seq1 uint64, at2 time.Duration, seq2 uint64) bool {
	return at1 < at2 || at1 == at2 && seq1 < seq2
}

// eventHeap is a binary min-heap of events ordered by (at, seq). Its push and
// pop are typed, so an event is never boxed in an interface.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return before(h[i].at, h[i].seq, h[j].at, h[j].seq)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the fn reference so the backing array does not pin it
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return e
}

// timer is a cancelable kernel action: a GetTimeout deadline. Timers live in
// their own index-tracked heap so that stopping one removes it at once; an
// event can only be ignored when it fires, and until then it costs heap depth
// and GC scan work. A timer takes its seq from the same counter as events, so
// the two heaps merge into one (at, seq) firing order.
type timer struct {
	at  time.Duration
	seq uint64
	idx int     // position in Sim.timers while pending
	w   *waiter // timed out and woken when the timer fires
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). Each timer
// records its index, so any pending timer can be removed in O(log n).
type timerHeap []*timer

func (h timerHeap) less(i, j int) bool {
	return before(h[i].at, h[i].seq, h[j].at, h[j].seq)
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h.swap(i, least)
		i = least
	}
}

func (h *timerHeap) push(t *timer) {
	t.idx = len(*h)
	*h = append(*h, t)
	h.up(t.idx)
}

// remove takes the timer at index i out of the heap and returns it.
func (h *timerHeap) remove(i int) *timer {
	q := *h
	n := len(q) - 1
	t := q[i]
	if i != n {
		q.swap(i, n)
	}
	q[n] = nil // do not let the backing array pin the timer
	q = q[:n]
	*h = q
	if i < n {
		q.down(i)
		q.up(i)
	}
	return t
}

// startTimer arms t to fire d from now.
func (s *Sim) startTimer(t *timer, d time.Duration) {
	s.seq++
	t.at, t.seq = s.now+d, s.seq
	s.timers.push(t)
}

// stopTimer disarms the pending timer t.
func (s *Sim) stopTimer(t *timer) { s.timers.remove(t.idx) }

// schedule enqueues fn to run in kernel context at time at. It may be called
// from kernel context or from a running process (both are exclusive).
func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn})
}

// At schedules fn to run in kernel context at absolute virtual time at.
// fn must not block; to run blocking code, spawn a process from within fn.
func (s *Sim) At(at time.Duration, fn func()) { s.schedule(at, fn) }

// After schedules fn to run in kernel context d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run processes events until none remain, Stop is called, or every process
// has finished and nothing further is scheduled. It returns the final
// virtual time: that of the last event processed. A timer stopped before it
// fired is gone, so it does not extend the run. If any process panicked, Run
// re-panics with its value.
func (s *Sim) Run() time.Duration { return s.RunUntil(-1) }

// RunUntil is Run bounded by a horizon: events strictly after until are left
// unprocessed (pass a negative horizon for no bound). The heap top is peeked,
// not popped, before the horizon check, so an event beyond the horizon costs
// no churn — RunUntil in a polling loop used to pop and re-push it every call.
// When nothing at all is pending, it returns at the last event processed.
func (s *Sim) RunUntil(until time.Duration) time.Duration {
	for !s.stopped {
		at, isTimer, ok := s.next()
		if !ok {
			break
		}
		if until >= 0 && at > until {
			s.now = until
			break
		}
		// The event branch is written out here and in RunBefore: a shared
		// non-inlined helper cost about 10% on BenchmarkProcSwitch.
		if isTimer {
			s.fireTimer()
		} else {
			e := s.events.pop()
			s.now = e.at
			e.fn()
		}
		s.checkPanic()
	}
	return s.now
}

// RunBefore processes events strictly before the window end w, leaving events
// at or after w (and the current time wherever the last processed event put
// it). It is the per-window step of the sharded kernel: a shard may safely
// run everything before w = barrier + lookahead because no cross-shard
// message can arrive earlier than one lookahead after it was sent.
func (s *Sim) RunBefore(w time.Duration) time.Duration {
	for !s.stopped {
		at, isTimer, ok := s.next()
		if !ok || at >= w {
			break
		}
		if isTimer {
			s.fireTimer()
		} else {
			e := s.events.pop()
			s.now = e.at
			e.fn()
		}
		s.checkPanic()
	}
	return s.now
}

// NextEventTime peeks the earliest pending event or timer time without
// disturbing either heap. ok is false when nothing is scheduled.
func (s *Sim) NextEventTime() (at time.Duration, ok bool) {
	at, _, ok = s.next()
	return at, ok
}

// next peeks the earliest pending action by (at, seq): the top of the timer
// heap if isTimer, else the top of the event heap. ok is false when both are
// empty.
func (s *Sim) next() (at time.Duration, isTimer, ok bool) {
	if len(s.timers) > 0 {
		t := s.timers[0]
		if len(s.events) == 0 || before(t.at, t.seq, s.events[0].at, s.events[0].seq) {
			return t.at, true, true
		}
	}
	if len(s.events) == 0 {
		return 0, false, false
	}
	return s.events[0].at, false, true
}

// fireTimer pops the earliest timer and expires its waiter.
func (s *Sim) fireTimer() {
	t := s.timers.remove(0)
	s.now = t.at
	t.w.expire()
}

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

func (s *Sim) checkPanic() {
	if s.panicVal != nil {
		panic(fmt.Sprintf("sim: process panic at t=%v in %s: %v", s.now, s.panicLoc, s.panicVal))
	}
}

// Proc is a simulated process: a coroutine the kernel resumes from events.
// All blocking primitives (Sleep, queue and resource operations) take the
// calling process so the kernel knows whom to suspend; a Proc must only be
// passed to blocking primitives from inside its own body. A process that
// calls runtime.Goexit (as t.FailNow does) also ends the goroutine running
// the kernel, since the coroutine propagates it through next.
type Proc struct {
	sim  *Sim
	name string

	// next resumes the coroutine until it next blocks or returns; yield,
	// called from inside the coroutine, suspends it back to next's caller.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// resumeFn is p.resume bound once at spawn, so every wake schedules the
	// same func value and allocates nothing.
	resumeFn func()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator that owns this process.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. It can be called before Run or from a running
// process or kernel callback.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawnAt(s.now, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (s *Sim) SpawnAt(d time.Duration, name string, fn func(p *Proc)) *Proc {
	return s.spawnAt(s.now+d, name, fn)
}

func (s *Sim) spawnAt(at time.Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	p.resumeFn = p.resume
	s.live++
	s.schedule(at, p.resumeFn)
	return p
}

// run is the coroutine body. A panic is recorded rather than propagated so
// the kernel can re-raise it with the virtual time and process name.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			p.sim.panicVal = r
			p.sim.panicLoc = p.name
		}
		p.sim.live--
	}()
	fn(p)
}

// resume runs the process until it blocks or returns. Kernel context only.
func (p *Proc) resume() { p.next() }

// block suspends the process until something calls wake. It must only be
// invoked from inside the process's own body.
func (p *Proc) block() { p.yield(struct{}{}) }

// wake schedules the process to resume at the current virtual time. It must
// be called with the kernel or another process in control, never by p itself.
func (p *Proc) wake() { p.sim.schedule(p.sim.now, p.resumeFn) }

// wakeAt schedules the process to resume at absolute time at.
func (p *Proc) wakeAt(at time.Duration) { p.sim.schedule(at, p.resumeFn) }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields, letting same-time events run
		// in FIFO order.
		d = 0
	}
	p.wakeAt(p.sim.now + d)
	p.block()
}

// Yield gives other ready processes and events at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }
