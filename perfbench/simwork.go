package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/metrics"
	"rpcoib/internal/tracing"
)

// simSpec describes a workload that runs on one single-kernel cluster with
// clients driven by an opLoop (pingpong, bulk, ycsb_mix).
type simSpec struct {
	why     string
	clients int
	kinds   []string      // op kinds, in the order clients report them
	latency []int         // kinds whose latencies the latency metrics cover (nil: all)
	window  time.Duration // virtual measuring window
	// check is the leading part of the window that the same-seed replay
	// and the traced run cover (0: the whole window). A long window needs
	// no second full pass to prove it replays.
	check  time.Duration
	setups int // set-up samples a timed invocation takes
	// hostRate is the steady-phase rate in ops per host second on the
	// reference machine (a shared 2-core x86-64 VM). The steady phase
	// completes hostRate × --seconds ops, a fixed amount of work, so a
	// faster simulator finishes sooner instead of running further.
	hostRate float64
	// build deploys the seeded instance and spawns its clients, which drive
	// inst.loop once the phase runs the returned cluster.
	build func(inst *instance) *cluster.Cluster
}

// instance is one seeded deployment. reg and tr are nil unless traced.
type instance struct {
	seed int64
	reg  *metrics.Registry
	tr   *tracing.Tracer
	loop *opLoop
	spec *simSpec
}

// scaled returns the virtual window, its replayed part and the set-up
// sample count for p.
func (spec *simSpec) scaled(p params) (window, check time.Duration, setups int) {
	window, check, setups = spec.window, spec.check, spec.setups
	if check == 0 {
		check = window
	}
	if p.short {
		return window / 5, check / 5, 3
	}
	return window, check, setups
}

// opSpanName names the benchmark's own span around each op of kind k.
func (inst *instance) opSpanName(k int) string { return "bench." + inst.spec.kinds[k] }

// simWorkload builds the timed, traced and phase entry points for spec.
func simWorkload(spec *simSpec) workload {
	return workload{
		why:    spec.why,
		timed:  func(p params) (*report, error) { return simTimed(spec, p) },
		traced: func(p params) (*report, error) { return simTraced(spec, p) },
		phase:  func(p params, phase string) (*phaseResult, error) { return simPhase(spec, p, phase) },
	}
}

// simTimed is the --trace 0 invocation: a steady phase, a same-seed replay
// of its window, and extra set-ups until spec.setups samples exist.
func simTimed(spec *simSpec, p params) (*report, error) {
	steady, err := runChild(p, phaseSteady)
	if err != nil {
		return nil, err
	}
	replay, err := runChild(p, phaseWindow)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(steady.Check, replay.Check) {
		return nil, fmt.Errorf("same-seed replay changed the virtual results:\n  first  %+v\n  replay %+v",
			steady.Check, replay.Check)
	}
	if !sameSig4(steady.CheckAllocsPerOp, replay.CheckAllocsPerOp) {
		return nil, fmt.Errorf("same-seed replay changed allocs/op in the window: %.4f vs %.4f",
			steady.CheckAllocsPerOp, replay.CheckAllocsPerOp)
	}
	window, check, want := spec.scaled(p)
	setups := []float64{steady.SetupS, replay.SetupS}
	for len(setups) < want {
		r, err := runChild(p, phaseSetup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}

	v := steady.Virtual
	rep := &report{attempted: steady.Ops, failed: 0}
	rep.add("sim_latency_mean_us", "us", v.MeanUS)
	rep.add("sim_latency_p99_us", "us", v.P99US)
	rep.add("sim_throughput_kops", "Kops/s", v.Kops)
	rep.add("host_ops_per_s", "ops/s", steady.HostOpsPerS)
	rep.add("allocs_per_op", "allocs", steady.Mallocs/float64(steady.Ops))
	rep.add("bytes_per_op", "B", steady.AllocBytes/float64(steady.Ops))
	rep.add("live_heap_mb", "MiB", steady.LiveHeapMB)
	rep.add("setup_s", "s", median(setups))
	rep.notef("virtual window %v: %d ops sampled (p99 rests on %d samples beyond it); replay of its first %v identical",
		window, v.Samples, v.Samples-int(0.99*float64(v.Samples)), check)
	rep.notef("steady phase: %d ops in %.2f host s; allocs/op over the replayed part %.4f (replay %.4f); failed 0 of %d",
		steady.Ops, steady.HostS, steady.CheckAllocsPerOp, replay.CheckAllocsPerOp, steady.Ops)
	rep.notef("set-up samples (s): %v", setups)
	return rep, nil
}

// simTraced is the --trace 1 invocation: an untraced pass over the
// window's replayed part for the overhead baseline, then the same part
// traced and profiled.
func simTraced(spec *simSpec, p params) (*report, error) {
	base, err := runChild(p, phaseUntraced)
	if err != nil {
		return nil, err
	}
	tr, err := runChild(p, phaseTraced)
	if err != nil {
		return nil, err
	}
	layers := tr.Layers
	layers["tracing.overhead_ratio"] = tr.HostOpsPerS / base.HostOpsPerS
	layers["failed_ratio"] = 0
	layers["sim_latency_samples"] = float64(base.Virtual.Samples)
	layers["sim_latency_p50_us"] = base.Virtual.P50US
	if k, ok := base.Virtual.Kinds["get"]; ok {
		layers["ycsb.get_us.p50"], layers["ycsb.get_us.p99"] = k.P50US, k.P99US
	}
	if k, ok := base.Virtual.Kinds["put"]; ok {
		layers["ycsb.put_us.p50"], layers["ycsb.put_us.p99"] = k.P50US, k.P99US
	}
	return layerReport(layers, base.Ops, tr.Profile)
}

// simPhase runs one phase of spec in this process.
func simPhase(spec *simSpec, p params, phase string) (*phaseResult, error) {
	inst := &instance{seed: p.seed, spec: spec}
	var spans bytes.Buffer
	var prof *profiler
	switch phase {
	case phaseSteady, phaseWindow, phaseSetup, phaseUntraced:
	case phaseTraced:
		inst.reg = metrics.New()
		sink := tracing.NewSink(&spans, tracing.SinkOptions{})
		inst.tr = tracing.New(p.seed, sink, tracing.Sampler{})
		inst.tr.Instrument(inst.reg)
		prof = &profiler{}
	default:
		return nil, fmt.Errorf("unknown phase %q", phase)
	}

	begun := time.Now()
	cl := spec.build(inst)
	full, check, _ := spec.scaled(p)
	window := check
	if phase == phaseSteady {
		window = full
	}
	l := newOpLoop(cl.Sim, spec.clients, len(spec.kinds), window)
	l.check = check
	// Readings sit at the same virtual instants in the steady phase and in
	// the replay, so both make the same forced collections before the check.
	l.heapStep = full / heapReadings
	l.begun = begun
	inst.loop = l
	switch phase {
	case phaseSteady:
		l.steady(int64(spec.hostRate * float64(p.seconds)))
		l.heapChecks = true
	case phaseWindow:
		l.heapChecks = true // keeps the window's allocations identical to the steady phase's
	case phaseSetup:
		l.setupOnly = true
	}
	var snap0, snap1 metrics.Snapshot
	var profErr error
	if prof != nil {
		cl.IBNet().Instrument(inst.reg)
		cl.IBNet().TraceEvents(inst.tr)
		l.onOpen = func(at time.Duration) {
			snap0 = inst.reg.Snapshot(at)
			profErr = prof.start()
		}
		l.onClose = func(at time.Duration) {
			prof.stop()
			snap1 = inst.reg.Snapshot(at)
		}
	}
	cl.RunUntil(24 * time.Hour)
	res, err := l.result(spec)
	if err != nil || prof == nil {
		return res, err
	}
	if profErr != nil {
		return nil, profErr
	}
	return tracedLayers(res, l, spans.Bytes(), metrics.Diff(snap1, snap0), snap1, prof)
}
