package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/exec"
	"rpcoib/internal/metrics"
	"rpcoib/internal/sim"
)

// steadyBatches is how many equal op-count batches the steady phase is cut
// into; host_ops_per_s is the median of their rates. Each batch spans
// several GC cycles, so its median rate still pays for collection.
const steadyBatches = 64

// heapReadings is how many live-heap readings the window takes. The live
// heap is read inside the window, not at the steady phase's end: pending
// call-timeout events keep the heap growing with every call until the
// first timeouts fire, so a reading at the end would grow with --seconds.
// The median of many readings smooths over which multi-megabyte buffers
// (bulk's pooled and in-flight payloads, 40-47 MiB between readings of one
// run) happen to be live at any one instant.
const heapReadings = 32

// opLoop runs the closed-loop clients of one simulated instance against both
// clocks. The clients warm up, then wait for each other; the last one to
// arrive ends set-up and starts the virtual measuring window
// [t0, t0+window]. Latencies of ops completing inside the window are the
// virtual results; those inside [t0, t0+check] are the part a same-seed
// replay, which runs with window = check, must reproduce. The loop keeps
// going until the window has closed and, in the steady phase, a fixed
// number of ops has completed too; then it stops the simulation. Only
// virtual events decide where the window and the steady phase end, so
// their ops, and the allocations they make, are the same in every
// same-seed run however fast the host is.
//
// All methods run inside simulated processes, which the kernel executes
// one at a time, so the loop needs no locking.
type opLoop struct {
	sim       *sim.Sim
	clients   int
	window    time.Duration
	check     time.Duration // replayed part of the window (<= window)
	steadyOps int64         // ops the steady phase completes at least (0: it ends with the window)
	setupOnly bool
	// heapChecks reads the live heap every heapStep of virtual time inside
	// the window and at the window's end.
	heapChecks bool
	heapStep   time.Duration
	begun      time.Time // host time the build started

	// Traced phases: called once when the window opens and once when it
	// closes, from inside the simulation.
	onOpen, onClose func(at time.Duration)

	arrived int
	release *sim.Queue
	t0      time.Duration
	stopped bool

	lat          [][]time.Duration // per kind, ops completed inside the window
	windowOps    int64
	windowLast   time.Duration // completion time of the window's last op
	windowClosed bool
	heaps        []float64 // live-heap readings in MiB

	// The window's first check: per-kind sample counts, ops, the last
	// op's completion time and allocs/op, fixed at the first completion
	// past it.
	checked     bool
	checkN      []int
	checkOps    int64
	checkLast   time.Duration
	checkAllocs float64

	ms0        runtime.MemStats
	hostStart  time.Time
	ops        int64
	batchSize  int64 // ops per host-rate batch (0: no batches)
	batchStart time.Time
	batchOps   int64
	rates      []float64
	res        phaseResult
}

func newOpLoop(s *sim.Sim, clients, kinds int, window time.Duration) *opLoop {
	return &opLoop{
		sim: s, clients: clients, window: window,
		release: s.NewQueue(0),
		lat:     make([][]time.Duration, kinds),
		checkN:  make([]int, kinds),
		// Preallocated so host-timed batches and heap readings never
		// allocate inside the window, where allocations are compared
		// across runs.
		rates: make([]float64, 0, 1024),
		heaps: make([]float64, 0, heapReadings+1),
	}
}

// steady makes l a steady phase of n ops, timed in steadyBatches batches.
func (l *opLoop) steady(n int64) {
	l.steadyOps = n
	l.batchSize = n / steadyBatches
}

// begin is called by each client once it has warmed up. It blocks until
// every client has arrived and reports whether the client should run ops.
func (l *opLoop) begin(e exec.Env) bool {
	l.arrived++
	if l.arrived < l.clients {
		l.release.Get(cluster.ProcOf(e))
		return !l.stopped
	}
	l.res.SetupS = time.Since(l.begun).Seconds()
	l.t0 = e.Now()
	if l.setupOnly {
		l.stopped = true
		l.sim.Stop()
		l.release.Close()
		return false
	}
	if l.onOpen != nil {
		l.onOpen(l.t0)
	}
	runtime.ReadMemStats(&l.ms0)
	l.hostStart = time.Now()
	l.batchStart = l.hostStart
	l.release.Close()
	return true
}

// next reports whether a client should issue another op.
func (l *opLoop) next() bool { return !l.stopped }

// done records one completed op of the given kind that started at virtual
// time start. Any op error is a failed check: the phase exits non-zero.
func (l *opLoop) done(e exec.Env, kind int, start time.Duration, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: op failed at %v: %v\n", e.Now(), err)
		os.Exit(1)
	}
	if l.stopped {
		return
	}
	now := e.Now()
	l.ops++
	l.batchOps++
	if !l.checked && now > l.t0+l.check {
		l.checkpoint()
	}
	if now <= l.t0+l.window {
		l.lat[kind] = append(l.lat[kind], now-start)
		l.windowOps++
		l.windowLast = now
		if l.heapChecks && now >= l.t0+time.Duration(len(l.heaps)+1)*l.heapStep {
			l.readHeap()
		}
	} else if !l.windowClosed {
		l.closeWindow(now)
	}
	if l.batchSize > 0 && l.batchOps == l.batchSize {
		h := time.Now()
		l.rates = append(l.rates, float64(l.batchOps)/h.Sub(l.batchStart).Seconds())
		l.batchStart, l.batchOps = h, 0
	}
	if l.windowClosed && l.ops >= l.steadyOps {
		l.stop(time.Now())
	}
}

// checkpoint fixes the replayed part's results at the first completion
// past it, before that op is recorded.
func (l *opLoop) checkpoint() {
	l.checked = true
	for k, lat := range l.lat {
		l.checkN[k] = len(lat)
	}
	l.checkOps, l.checkLast = l.windowOps, l.windowLast
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.checkAllocs = float64(m.Mallocs-l.ms0.Mallocs) / float64(l.ops)
}

// closeWindow fixes the window's results at the first completion past it.
func (l *opLoop) closeWindow(now time.Duration) {
	l.windowClosed = true
	if l.onClose != nil {
		l.onClose(now)
	}
	if l.heapChecks {
		l.readHeap()
		l.res.LiveHeapMB = median(l.heaps)
	}
}

// readHeap reads the live heap after a forced collection. The collection
// is the benchmark's, not the program's, so its host time is kept out of
// the steady phase's clocks.
func (l *opLoop) readHeap() {
	t := time.Now()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.heaps = append(l.heaps, mib(float64(m.HeapAlloc)))
	d := time.Since(t)
	l.hostStart, l.batchStart = l.hostStart.Add(d), l.batchStart.Add(d)
}

// stop ends the steady phase: it reads the allocator and stops the kernel.
func (l *opLoop) stop(h time.Time) {
	l.stopped = true
	elapsed := h.Sub(l.hostStart)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r := &l.res
	r.Ops = l.ops
	r.HostS = elapsed.Seconds()
	r.Mallocs = float64(m.Mallocs - l.ms0.Mallocs)
	r.AllocBytes = float64(m.TotalAlloc - l.ms0.TotalAlloc)
	r.HostOpsPerS = float64(l.ops) / elapsed.Seconds()
	if len(l.rates) >= 3 {
		r.HostOpsPerS = median(l.rates)
	}
	l.sim.Stop()
}

// result assembles the phase result once the simulation has stopped.
func (l *opLoop) result(spec *simSpec) (*phaseResult, error) {
	if !l.stopped {
		return nil, fmt.Errorf("simulation went idle before the phase ended (%d of %d clients arrived, %d ops)",
			l.arrived, l.clients, l.ops)
	}
	r := &l.res
	if l.setupOnly {
		return r, nil
	}
	n := make([]int, len(l.lat))
	for k, lat := range l.lat {
		n[k] = len(lat)
	}
	var err error
	if r.Virtual, err = l.stats(spec, n, l.windowOps, l.windowLast); err != nil {
		return nil, err
	}
	if r.Check, err = l.stats(spec, l.checkN, l.checkOps, l.checkLast); err != nil {
		return nil, err
	}
	r.CheckAllocsPerOp = l.checkAllocs
	return r, nil
}

// stats summarizes the first n[k] latencies of each kind k, out of ops
// window ops of which the last completed at last.
func (l *opLoop) stats(spec *simSpec, n []int, ops int64, last time.Duration) (virtualStats, error) {
	var all []time.Duration
	for k, lat := range l.lat {
		if spec.latency == nil || slices.Contains(spec.latency, k) {
			all = append(all, lat[:n[k]]...)
		}
	}
	if len(all) == 0 {
		return virtualStats{}, fmt.Errorf("no op completed inside the %v window", l.window)
	}
	st := summarize(all)
	v := virtualStats{
		Samples: st.Samples, MeanUS: st.MeanUS, P50US: st.P50US, P99US: st.P99US,
		Kops:     float64(ops) / (last - l.t0).Seconds() / 1000,
		Attempts: ops,
	}
	if len(spec.kinds) > 1 {
		v.Kinds = map[string]latencyStats{}
		for k, name := range spec.kinds {
			v.Kinds[name] = summarize(l.lat[k][:n[k]])
		}
	}
	return v, nil
}

// counterSum adds every counter of the family name (all label sets).
func counterSum(s metrics.Snapshot, name string) float64 { return familySum(s.Counters, name) }

// gaugeSum adds every gauge of the family name (all label sets).
func gaugeSum(s metrics.Snapshot, name string) float64 { return familySum(s.Gauges, name) }

func familySum(values map[string]int64, name string) float64 {
	var n int64
	for k, v := range values {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return float64(n)
}
