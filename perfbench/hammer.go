package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"rpcoib/internal/bench"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
)

// hammerZeroSetups is how many near-zero-duration runs a timed invocation
// makes; their median host time is the set-up cost.
const hammerZeroSetups = 7

// hammerRunSeconds is the host time of one full run on the reference
// machine (a shared 2-core x86-64 VM). A timed invocation makes
// --seconds ÷ hammerRunSeconds full runs, at least two: a fixed amount of
// work, so a faster simulator finishes sooner instead of running more.
const hammerRunSeconds = 2.5

// hammerConfig is the S23 scale-out hammer at the rpcbench
// -experiment=hammer -hammer-scaleout defaults, on two kernel shards.
func hammerConfig(p params) bench.HammerConfig {
	s := sim.SubSeed(p.seed, 1)
	if s == 0 {
		s = 1
	}
	cfg := bench.HammerConfig{
		Nodes: 1000, Clients: 100_000, Shards: 2, Seed: s,
		Duration: 20 * time.Millisecond, Handlers: 64,
		ScaleOut: true, QPMuxCap: 64, ConnCacheCap: 4096, SRQDepth: 8 * 64,
	}
	if p.short {
		cfg.Nodes, cfg.Clients, cfg.Duration = 100, 10_000, 5*time.Millisecond
	}
	return cfg
}

// steadyEnd is the hammer's trace-sink writer. RunHammer merges its sampled
// spans into the sink after the last virtual slice and before it tears the
// cluster down, so the first write marks the end of the steady phase while
// every client is still live. The hook reads the host clock there, then
// measures the live heap after a forced collection.
type steadyEnd struct {
	at       time.Time
	liveHeap float64
	keep     bool         // retain the span records (traced phases)
	spans    bytes.Buffer // the records, when kept
}

func (h *steadyEnd) Write(p []byte) (int, error) {
	if h.at.IsZero() {
		h.at = time.Now()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		h.liveHeap = mib(float64(m.HeapAlloc))
	}
	if h.keep {
		h.spans.Write(p)
	}
	return len(p), nil
}

// hammerWorkload runs bench.RunHammer, which builds and runs in one call.
// Set-up and steady phase are split from outside: the same configuration
// at a near-zero virtual duration measures set-up alone, and the full run
// minus that is the steady phase.
func hammerWorkload() workload {
	return workload{
		why:    "100K event-driven clients on 1000 nodes against one NameNode: sharded kernel, SRQ/QP-mux/budget admission under overload",
		timed:  hammerTimed,
		traced: hammerTraced,
		phase:  hammerPhase,
	}
}

// hammerPhase runs one RunHammer call in this process.
func hammerPhase(p params, phase string) (*phaseResult, error) {
	cfg := hammerConfig(p)
	var prof *profiler
	switch phase {
	case phaseHammerZero, phaseHammerFull:
	case phaseHammerZeroTraced, phaseHammerTraced:
		prof = &profiler{}
	default:
		return nil, fmt.Errorf("unknown phase %q", phase)
	}
	zero := phase == phaseHammerZero || phase == phaseHammerZeroTraced
	if zero {
		cfg.Duration = 1 // clients start no call before the run ends
	}
	hook := &steadyEnd{keep: phase == phaseHammerTraced}
	cfg.TraceSink = tracing.NewSink(hook, tracing.SinkOptions{})

	if prof != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := bench.RunHammer(cfg)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if prof != nil {
		prof.stop()
	}

	r := &phaseResult{
		Ops:        res.Calls,
		Mallocs:    float64(m1.Mallocs - m0.Mallocs),
		AllocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		HostS:      end.Sub(start).Seconds(),
		LiveHeapMB: hook.liveHeap,
	}
	if !hook.at.IsZero() {
		r.HostS = hook.at.Sub(start).Seconds()
	}
	if zero {
		r.SetupS = r.HostS
		if prof != nil {
			var err error
			if r.Profile, err = prof.layers(); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	if err := checkHammer(cfg, res); err != nil {
		return nil, err
	}
	lat := res.Final.Histograms[bench.HammerLatencyMetric]
	r.Virtual = virtualStats{
		Samples:  int(lat.Count),
		MeanUS:   float64(lat.Sum) / float64(lat.Count) / 1e3,
		P50US:    float64(lat.Quantile(0.5)) / 1e3,
		P99US:    float64(lat.Quantile(0.99)) / 1e3,
		Kops:     float64(res.Calls) / cfg.Duration.Seconds() / 1000,
		Attempts: res.Calls + res.Busy,
	}
	if prof != nil {
		return hammerLayers(r, res, hook.spans.Bytes(), prof)
	}
	return r, nil
}

// checkHammer verifies the scale-out footprint bounds and that the
// NameNode served every completed call.
func checkHammer(cfg bench.HammerConfig, res bench.HammerResult) error {
	switch {
	case res.Calls == 0:
		return fmt.Errorf("hammer completed no calls")
	case res.QPsPeak > cfg.QPMuxCap:
		return fmt.Errorf("hammer QPs peaked at %d above the mux cap %d", res.QPsPeak, cfg.QPMuxCap)
	case res.SRQPostedPeak > cfg.SRQDepth:
		return fmt.Errorf("hammer SRQ posted peak %d above depth %d", res.SRQPostedPeak, cfg.SRQDepth)
	case res.RegisteredBytes > res.BudgetBytes:
		return fmt.Errorf("hammer registered %d bytes above the %d-byte budget", res.RegisteredBytes, res.BudgetBytes)
	case res.Sessions > cfg.ConnCacheCap:
		return fmt.Errorf("hammer holds %d sessions above the cache cap %d", res.Sessions, cfg.ConnCacheCap)
	case res.Served < res.Calls:
		return fmt.Errorf("hammer served %d calls but %d completed", res.Served, res.Calls)
	}
	return nil
}

// hammerTimed is the --trace 0 invocation: near-zero runs for set-up, then
// a fixed number of full runs. Every full run is a same-seed replay of the
// first and must match it.
func hammerTimed(p params) (*report, error) {
	var setups, zeroMallocs, zeroBytes []float64
	for i := 0; i < hammerZeroSetups; i++ {
		z, err := runChild(p, phaseHammerZero)
		if err != nil {
			return nil, err
		}
		setups = append(setups, z.SetupS)
		zeroMallocs = append(zeroMallocs, z.Mallocs)
		zeroBytes = append(zeroBytes, z.AllocBytes)
	}
	setup := median(setups)

	var fulls []*phaseResult
	for len(fulls) < max(2, int(float64(p.seconds)/hammerRunSeconds)) {
		f, err := runChild(p, phaseHammerFull)
		if err != nil {
			return nil, err
		}
		fulls = append(fulls, f)
	}
	first := fulls[0]
	allocsPerOp := func(f *phaseResult) float64 { return (f.Mallocs - median(zeroMallocs)) / float64(f.Ops) }
	var rates, heaps, mallocs, allocBytes []float64
	for _, f := range fulls {
		if !reflect.DeepEqual(f.Virtual, first.Virtual) {
			return nil, fmt.Errorf("same-seed replay changed the virtual results:\n  first  %+v\n  replay %+v",
				first.Virtual, f.Virtual)
		}
		if !sameSig4(allocsPerOp(f), allocsPerOp(first)) {
			return nil, fmt.Errorf("same-seed replay changed allocs/op: %.4f vs %.4f", allocsPerOp(first), allocsPerOp(f))
		}
		rates = append(rates, float64(f.Ops)/(f.HostS-setup))
		heaps = append(heaps, f.LiveHeapMB)
		mallocs = append(mallocs, f.Mallocs)
		allocBytes = append(allocBytes, f.AllocBytes)
	}

	v := first.Virtual
	rep := &report{attempted: first.Ops, failed: 0}
	rep.add("sim_latency_mean_us", "us", v.MeanUS)
	rep.add("sim_latency_p99_us", "us", v.P99US)
	rep.add("sim_throughput_kops", "Kops/s", v.Kops)
	rep.add("host_ops_per_s", "ops/s", median(rates))
	rep.add("allocs_per_op", "allocs", (median(mallocs)-median(zeroMallocs))/float64(first.Ops))
	rep.add("bytes_per_op", "B", (median(allocBytes)-median(zeroBytes))/float64(first.Ops))
	rep.add("live_heap_mb", "MiB", median(heaps))
	rep.add("setup_s", "s", setup)
	rep.notef("virtual %v: %d calls completed, %d busy refusals retried (busy ratio %.3f); latency covers the admitted attempt only",
		hammerConfig(p).Duration, first.Ops, v.Attempts-first.Ops, float64(v.Attempts-first.Ops)/float64(v.Attempts))
	rep.notef("%d full runs, replay identical; host steady s per run: %v; set-up samples (s): %v",
		len(fulls), steadySeconds(fulls, setup), setups)
	return rep, nil
}

func steadySeconds(fulls []*phaseResult, setup float64) []float64 {
	out := make([]float64, len(fulls))
	for i, f := range fulls {
		out[i] = f.HostS - setup
	}
	return out
}

// hammerTraced is the --trace 1 invocation: the untraced set-up/steady pair
// gives the host-rate baseline; the profiled pair is subtracted layer by
// layer so set-up samples do not count as steady-phase cost.
func hammerTraced(p params) (*report, error) {
	var runs [4]*phaseResult
	for i, phase := range []string{phaseHammerZero, phaseHammerFull, phaseHammerZeroTraced, phaseHammerTraced} {
		r, err := runChild(p, phase)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	zero, full, zeroTr, tr := runs[0], runs[1], runs[2], runs[3]
	prof := map[string]int64{}
	for layer, n := range tr.Profile {
		if d := n - zeroTr.Profile[layer]; d > 0 {
			prof[layer] = d
		}
	}
	layers := tr.Layers
	untraced := float64(full.Ops) / (full.HostS - zero.SetupS)
	traced := float64(tr.Ops) / (tr.HostS - zeroTr.SetupS)
	layers["tracing.overhead_ratio"] = traced / untraced
	layers["sim_latency_samples"] = float64(tr.Virtual.Samples)
	layers["sim_latency_p50_us"] = tr.Virtual.P50US
	return layerReport(layers, tr.Ops, prof)
}
