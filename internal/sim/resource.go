package sim

import "time"

// Resource is a counting semaphore with FIFO granting, used to model
// contended capacity such as CPU cores, disk spindles, or NIC DMA engines.
type Resource struct {
	s        *Sim
	capacity int64
	inUse    int64
	waiters  []*waiter
	// busyUntil supports the serialized-use pattern (UseFor with capacity 1
	// models a store-and-forward link); tracked for introspection only.
	grants int64
}

// NewResource creates a resource with the given capacity (must be >= 1).
func (s *Sim) NewResource(capacity int64) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{s: s, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int64 { return r.inUse }

// Grants returns the total number of acquisitions ever granted.
func (r *Resource) Grants() int64 { return r.grants }

// Acquire blocks p until n units are available, then holds them.
// n must be between 1 and the capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n < 1 || n > r.capacity {
		panic("sim: invalid acquire count")
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		r.grants++
		return
	}
	w := &waiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	p.block()
}

// TryAcquire acquires n units without blocking, reporting success.
func (r *Resource) TryAcquire(n int64) bool {
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		r.grants++
		return true
	}
	return false
}

// Release returns n units and grants any waiters that now fit, in FIFO order.
func (r *Resource) Release(n int64) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if w.canceled {
			popFront(&r.waiters)
			continue
		}
		if r.inUse+w.n > r.capacity {
			break
		}
		popFront(&r.waiters)
		r.inUse += w.n
		r.grants++
		w.deliver(nil, true)
	}
}

// Use acquires one unit, holds it for d of virtual time, and releases it.
// This is the standard way to model occupying a CPU core or disk head.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}
