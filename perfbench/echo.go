package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
	"rpcoib/internal/wire"
)

const (
	echoProtocol = "bench.PingPongProtocol"
	echoMethod   = "pingpong"
	echoAddr     = "node0:9000"
)

// pingpongSpec is Fig 5(a)'s shape: one client and one server on Cluster B,
// RPCoIB over native IB, payloads from 1 B to 4 KB, all on the eager path.
var pingpongSpec = &simSpec{
	why:      "1 B-4 KB echo calls on the eager path: fixed per-call cost, mostly kernel handoff",
	clients:  1,
	kinds:    []string{"pingpong"},
	window:   time.Second,
	setups:   15,
	hostRate: 16_000,
	build:    func(inst *instance) *cluster.Cluster { return buildEcho(inst, 1, 4<<10, 1) },
}

// bulkSpec is the same loop with Fig 1's 64 KB-4 MB payloads, all above the
// 16 KB RDMA threshold: per-byte cost in wire, bufpool and ibverbs.
var bulkSpec = &simSpec{
	why:      "64 KB-4 MB echo calls over RDMA: per-byte copy and buffer-pool cost, not per-call cost",
	clients:  1,
	kinds:    []string{"bulk"},
	window:   2 * time.Second,
	setups:   15,
	hostRate: 600,
	build:    func(inst *instance) *cluster.Cluster { return buildEcho(inst, 64<<10, 4<<20, 8) },
}

// sizeGen draws payload sizes log-uniformly from [lo, hi]. With strata > 1,
// every cycle of that many draws visits each stratum of the log range once,
// in a seeded order, so a run's mean payload (and with it bytes/op) varies
// little from seed to seed while each size stays a continuous draw.
type sizeGen struct {
	rng    *rand.Rand
	lo, hi float64 // natural logs of the bounds
	order  []int
	i      int
}

func newSizeGen(rng *rand.Rand, lo, hi, strata int) *sizeGen {
	g := &sizeGen{rng: rng, lo: math.Log(float64(lo)), hi: math.Log(float64(hi)), order: make([]int, strata), i: strata}
	for i := range g.order {
		g.order[i] = i
	}
	return g
}

func (g *sizeGen) next() int {
	n := len(g.order)
	if g.i == n {
		g.rng.Shuffle(n, func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
		g.i = 0
	}
	u := (float64(g.order[g.i]) + g.rng.Float64()) / float64(n)
	g.i++
	return int(math.Round(math.Exp(g.lo + u*(g.hi-g.lo))))
}

// startEchoServer registers a method that returns its argument.
func startEchoServer(cl *cluster.Cluster, inst *instance) {
	cl.SpawnOn(0, "rpc-server", func(e exec.Env) {
		srv := core.NewServer(cl.RPCoIBNet(0), core.Options{
			Mode: core.ModeRPCoIB, Costs: cl.Costs, Metrics: inst.reg, Trace: inst.tr,
		})
		srv.Register(echoProtocol, echoMethod,
			func() wire.Writable { return &wire.BytesWritable{} },
			func(e exec.Env, p wire.Writable) (wire.Writable, error) { return p, nil })
		if err := srv.Start(e, 9000); err != nil {
			fatalf("echo server: %v", err)
		}
	})
}

// buildEcho deploys the echo pair and one client whose payload sizes are
// drawn from [lo, hi] over the given strata. Payload bytes are slices of a
// seeded random pattern, and every reply must match its request byte for
// byte. Pingpong draws without strata: its latency rises by nanoseconds per
// byte, so with strata the window's median payload, and with it the median
// latency, would come out the same for every seed.
func buildEcho(inst *instance, lo, hi, strata int) *cluster.Cluster {
	cc := cluster.ClusterB()
	cc.Seed = sim.SubSeed(inst.seed, 1)
	cl := cluster.New(cc)
	startEchoServer(cl, inst)

	rng := rand.New(rand.NewSource(sim.SubSeed(inst.seed, 2)))
	pattern := make([]byte, 2*hi)
	rng.Read(pattern)
	sizes := newSizeGen(rng, lo, hi, strata)
	cl.SpawnOn(1, "client", func(e exec.Env) {
		e.Sleep(time.Millisecond)
		client := core.NewClient(cl.RPCoIBNet(1), core.Options{
			Mode: core.ModeRPCoIB, Costs: cl.Costs, Metrics: inst.reg, Trace: inst.tr,
		})
		param := &wire.BytesWritable{}
		var reply wire.BytesWritable
		call := func(e exec.Env) error {
			n := sizes.next()
			off := rng.Intn(len(pattern) - n + 1)
			param.Value = pattern[off : off+n]
			if err := client.Call(e, echoAddr, echoProtocol, echoMethod, param, &reply); err != nil {
				return err
			}
			if !bytes.Equal(reply.Value, param.Value) {
				return fmt.Errorf("echo reply of %d bytes does not match its %d-byte request", len(reply.Value), n)
			}
			// ReadFields copies every reply into a fresh slice, so dropping
			// it costs no allocation; the live-heap readings then see what
			// the program retains, not the benchmark's last payload.
			reply.Value = nil
			return nil
		}
		// Warm-up: the connection plus a pool history for the size range.
		for i := 0; i < 16; i++ {
			if err := call(e); err != nil {
				fatalf("echo warm-up: %v", err)
			}
		}
		l := inst.loop
		if !l.begin(e) {
			return
		}
		for l.next() {
			start := e.Now()
			oe, end := tracing.StartOp(inst.tr, e, inst.opSpanName(0))
			err := call(oe)
			end()
			l.done(e, 0, start, err)
		}
	})
	return cl
}

// Paper anchors for Fig 5(a): RPCoIB ping-pong latency in µs, as recorded
// in EXPERIMENTS.md.
const (
	paper1BUS  = 39.0
	paper4KBUS = 52.0
	anchorOps  = 200
)

// fig5aAnchor measures the warm mean RPCoIB round trip for 1 B and 4 KB
// payloads on a fresh Cluster B, the way Fig 5(a) is measured, and returns
// the signed error against the paper in percent.
func fig5aAnchor() (err1B, err4KB float64) {
	measure := func(payload int) float64 {
		cl := cluster.New(cluster.ClusterB())
		startEchoServer(cl, &instance{})
		var mean time.Duration
		cl.SpawnOn(1, "client", func(e exec.Env) {
			e.Sleep(time.Millisecond)
			client := core.NewClient(cl.RPCoIBNet(1), core.Options{Mode: core.ModeRPCoIB, Costs: cl.Costs})
			param := &wire.BytesWritable{Value: make([]byte, payload)}
			var reply wire.BytesWritable
			call := func() {
				if err := client.Call(e, echoAddr, echoProtocol, echoMethod, param, &reply); err != nil {
					fatalf("fig 5(a) anchor: %v", err)
				}
			}
			for i := 0; i < 3; i++ {
				call()
			}
			start := e.Now()
			for i := 0; i < anchorOps; i++ {
				call()
			}
			mean = (e.Now() - start) / anchorOps
		})
		cl.RunUntil(time.Minute)
		return float64(mean) / float64(time.Microsecond)
	}
	pct := func(sim, paper float64) float64 { return 100 * (sim - paper) / paper }
	return pct(measure(1), paper1BUS), pct(measure(4<<10), paper4KBUS)
}
