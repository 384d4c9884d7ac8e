package sim

import "time"

// waiter represents a process blocked on a queue or resource. The canceled
// flag lets two competing wake sources (e.g. a delivery and a timeout) race
// safely: whichever fires first cancels the other, and a canceled waiter is
// skipped. A waiter with a deadline also holds its pending timer, which a
// delivery stops.
type waiter struct {
	p        *Proc
	val      any    // value delivered to a getter
	t        *timer // pending GetTimeout deadline, nil once stopped or fired
	n        int64  // units requested (resources) / element delivered (queues)
	ok       bool   // delivery succeeded (false: queue closed or timed out)
	canceled bool
	timedOut bool // the deadline fired before any delivery
}

// deliver hands the waiter its result, stops its deadline and wakes it.
func (w *waiter) deliver(v any, ok bool) {
	w.val, w.ok = v, ok
	w.canceled = true // consume the waiter so no other source wakes it
	if w.t != nil {
		w.p.sim.stopTimer(w.t)
		w.t = nil
	}
	w.p.wake()
}

// expire is the deadline firing first: the waiter is consumed, marked timed
// out and woken. Kernel context only; the timer has already left the heap.
func (w *waiter) expire() {
	w.t = nil
	w.canceled, w.timedOut = true, true
	w.p.wake()
}

// timedWaiter is a getter and its deadline in one allocation.
type timedWaiter struct {
	waiter
	timer
}

// Queue is a FIFO channel between simulated processes. A capacity of zero or
// less means unbounded. Queues preserve both element order and waiter order,
// so runs remain deterministic.
type Queue struct {
	s       *Sim
	cap     int
	items   []any
	getters []*waiter
	putters []*waiter
	closed  bool
}

// NewQueue creates a queue. capacity <= 0 means unbounded.
func (s *Sim) NewQueue(capacity int) *Queue {
	return &Queue{s: s, cap: capacity}
}

// Len reports the number of buffered elements.
func (q *Queue) Len() int { return len(q.items) }

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool { return q.closed }

// Close marks the queue closed. Blocked getters receive (nil, false) once the
// buffer drains; blocked and future putters' values are dropped.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.putters {
		if !w.canceled {
			w.deliver(nil, false)
		}
	}
	q.putters = nil
	if len(q.items) == 0 {
		for _, w := range q.getters {
			if !w.canceled {
				w.deliver(nil, false)
			}
		}
		q.getters = nil
	}
}

// popFront removes and returns the head of a FIFO slice, clearing its slot
// so the backing array does not pin it. A slice emptied this way keeps its
// backing array, so a FIFO that drains between uses does not reallocate.
func popFront[T any](s *[]T) T {
	q := *s
	v := q[0]
	var zero T
	q[0] = zero
	if len(q) == 1 {
		*s = q[:0]
	} else {
		*s = q[1:]
	}
	return v
}

// popLive removes and returns the first waiter that is not canceled, if any.
func popLive(ws *[]*waiter) *waiter {
	for len(*ws) > 0 {
		if w := popFront(ws); !w.canceled {
			return w
		}
	}
	return nil
}

// popGetter removes and returns the first live getter, if any.
func (q *Queue) popGetter() *waiter { return popLive(&q.getters) }

func (q *Queue) popPutter() *waiter { return popLive(&q.putters) }

// Put appends v, blocking p while a bounded queue is full. Putting to a
// closed queue drops the value and returns false.
func (q *Queue) Put(p *Proc, v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		w := &waiter{p: p, val: v}
		q.putters = append(q.putters, w)
		p.block()
		return w.ok
	}
	q.items = append(q.items, v)
	return true
}

// TryPut is Put that never blocks; it reports whether the value was accepted.
func (q *Queue) TryPut(v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	return true
}

// PutKernel inserts a value from kernel context (e.g. a scheduled delivery
// callback). Bounded capacity is not enforced from kernel context.
func (q *Queue) PutKernel(v any) bool { return q.TryPutUnbounded(v) }

// TryPutUnbounded inserts ignoring the capacity bound (used by network
// deliveries, where the "buffer" backpressure is modeled elsewhere).
func (q *Queue) TryPutUnbounded(v any) bool {
	if q.closed {
		return false
	}
	if g := q.popGetter(); g != nil {
		g.deliver(v, true)
		return true
	}
	q.items = append(q.items, v)
	return true
}

func (q *Queue) take() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := popFront(&q.items)
	// A freed slot may unblock a putter.
	if pw := q.popPutter(); pw != nil {
		q.items = append(q.items, pw.val)
		pw.deliver(nil, true)
	}
	if q.closed && len(q.items) == 0 {
		for _, w := range q.getters {
			if !w.canceled {
				w.deliver(nil, false)
			}
		}
		q.getters = nil
	}
	return v, true
}

// Get removes and returns the head element, blocking p while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	if v, ok := q.take(); ok {
		return v, true
	}
	if q.closed {
		return nil, false
	}
	w := &waiter{p: p}
	q.getters = append(q.getters, w)
	p.block()
	return w.val, w.ok
}

// TryGet removes and returns the head element without blocking.
func (q *Queue) TryGet() (v any, ok bool) { return q.take() }

// GetTimeout is Get bounded by a timeout. timedOut reports that the timeout
// fired before an element arrived. The timeout is a cancelable timer: a
// delivery or Close that beats it stops it, so it leaves nothing pending and
// does not extend Run.
func (q *Queue) GetTimeout(p *Proc, d time.Duration) (v any, ok, timedOut bool) {
	if v, ok := q.take(); ok {
		return v, true, false
	}
	if q.closed {
		return nil, false, false
	}
	if d <= 0 {
		return nil, false, true
	}
	tw := &timedWaiter{}
	w := &tw.waiter
	w.p, w.t, tw.timer.w = p, &tw.timer, w
	q.getters = append(q.getters, w)
	q.s.startTimer(&tw.timer, d)
	p.block()
	if w.timedOut {
		return nil, false, true
	}
	return w.val, w.ok, false
}
