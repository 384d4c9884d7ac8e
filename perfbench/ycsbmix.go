package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rpcoib/internal/cluster"
	"rpcoib/internal/core"
	"rpcoib/internal/exec"
	"rpcoib/internal/hbase"
	"rpcoib/internal/hdfs"
	"rpcoib/internal/perfmodel"
	"rpcoib/internal/sim"
	"rpcoib/internal/tracing"
	"rpcoib/internal/ycsb"
)

const (
	ycsbServers    = 16
	ycsbClients    = 16
	ycsbRecords    = 20_000
	ycsbRecordSize = 1024
	ycsbZipfTheta  = 0.99 // YCSB's default request skew
	// ycsbMemstoreFlush is below the ~1.25 MB each region server takes in
	// during the load, so set-up leaves a store file in HDFS on every
	// region server and Fig 8(c)'s block-cache misses read it back.
	ycsbMemstoreFlush = 1 << 20
)

// ycsbSpec is Fig 8(c)'s shape with the HBaseoIB-RPCoIB configuration only:
// 16 region servers, 16 clients, 1 KB records, Zipfian keys, 50% Get and
// 50% Put, each client a closed loop timed by the benchmark itself. Every
// Get and Put carries one 1 KB record, as ycsb.Run does. A Put lands in the
// client's 2 MB write buffer (HBase autoflush off, as in Fig 8) and returns
// after a fixed client cost, so the latency metrics are the Gets': the ops
// that wait on the RPC path and, on a block-cache miss, on HDFS.
var ycsbSpec = &simSpec{
	why:      "HBase 50/50 Get/Put over RPCoIB: futures, the shared client runtime, region-server queueing and HDFS block reads on cache misses",
	clients:  ycsbClients,
	kinds:    []string{"get", "put"},
	latency:  []int{0},
	window:   40 * time.Second,
	check:    8 * time.Second,
	setups:   9,
	hostRate: 20_000,
	build:    buildYCSB,
}

// zipfian draws ranks in [0, n) with YCSB's Zipfian generator (Gray et
// al., "Quickly generating billion-record synthetic databases").
type zipfian struct {
	n                        int
	theta, alpha, zetan, eta float64
	half                     float64 // 1 + 0.5^theta
}

func newZipfian(n int, theta float64) *zipfian {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	half := 1 + math.Pow(0.5, theta)
	return &zipfian{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan, half: half,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - half/zetan),
	}
}

func (z *zipfian) next(rng *rand.Rand) int {
	uz := rng.Float64() * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*uz/z.zetan-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// buildYCSB deploys HDFS and HBase on nodes 0..16 and spawns the clients on
// nodes 17..32. Each client loads its slice of the records (set-up, checked
// by ycsb.Load's read-back sample) and then runs the mix.
func buildYCSB(inst *instance) *cluster.Cluster {
	cc := cluster.ClusterA(ycsbServers + ycsbClients + 1)
	cc.Seed = sim.SubSeed(inst.seed, 1)
	cl := cluster.New(cc)
	rsNodes := make([]int, 0, ycsbServers)
	for i := 1; i <= ycsbServers; i++ {
		rsNodes = append(rsNodes, i)
	}
	fs := hdfs.Deploy(cl, hdfs.Config{
		NameNode: 0, DataNodes: rsNodes, Replication: 3,
		RPCMode: core.ModeRPCoIB, RPCKind: perfmodel.IPoIB, DataKind: perfmodel.IPoIB,
		Metrics: inst.reg, Trace: inst.tr,
	})
	hb := hbase.Deploy(cl, hbase.Config{
		Master: 0, RegionServers: rsNodes, HBaseRDMA: true,
		MemstoreFlushSize: ycsbMemstoreFlush,
		// Interleaved writes churn the block cache, as in Fig 8(c).
		CacheMissRatio: 0.15,
		Metrics:        inst.reg, Trace: inst.tr,
	}, fs)
	hb.Runtime().Instrument(inst.reg)
	w := ycsb.Workload{RecordCount: ycsbRecords, RecordSize: ycsbRecordSize, Mix: ycsb.WorkloadMix, Zipfian: true}
	keys := newZipfian(ycsbRecords, ycsbZipfTheta)

	for i := 0; i < ycsbClients; i++ {
		i, node := i, ycsbServers+1+i
		rng := rand.New(rand.NewSource(sim.SubSeed(inst.seed, 100+int64(i))))
		cl.SpawnOn(node, fmt.Sprintf("ycsb-%d", i), func(e exec.Env) {
			e.Sleep(100 * time.Millisecond)
			c := hb.NewClient(node)
			if err := ycsb.Load(e, c, w, ycsbRecords*i/ycsbClients, ycsbRecords*(i+1)/ycsbClients); err != nil {
				fatalf("ycsb load (client %d): %v", i, err)
			}
			l := inst.loop
			if !l.begin(e) {
				return
			}
			if i == 0 {
				for j, rs := range hb.RegionServers() {
					if rs.Flushes == 0 {
						fatalf("region server %d wrote no store file during set-up", j)
					}
				}
			}
			for l.next() {
				key := ycsb.Key(keys.next(rng))
				kind := 0
				if rng.Float64() >= w.Mix.ReadProportion {
					kind = 1
				}
				start := e.Now()
				oe, end := tracing.StartOp(inst.tr, e, inst.opSpanName(kind))
				var err error
				if kind == 0 {
					err = c.Get(oe, key, ycsbRecordSize)
				} else {
					err = c.Put(oe, key, ycsbRecordSize)
				}
				end()
				l.done(e, kind, start, err)
			}
		})
	}
	return cl
}
