package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpcoib/internal/tracing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent invocation re-executes itself with --phase for every measurement
// phase.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--phase") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics asserts that rep carries exactly the named metrics, each
// finite and with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) map[string]float64 {
	t.Helper()
	got := map[string]metric{}
	for _, m := range rep.metrics {
		got[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("report has %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	values := map[string]float64{}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("metric %s = %v, not finite", w.Name, m.value)
		case m.unit == "" || m.unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit)
		}
		values[w.Name] = m.value
	}
	return values
}

// TestSmoke runs every workload tiny, timed and traced.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		p := params{workload: wl.Name, seed: 7, short: true}
		t.Run(wl.Name, func(t *testing.T) {
			rep, err := w.timed(p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			e2e := checkMetrics(t, rep, bf.EndToEnd)
			for _, name := range []string{"sim_latency_mean_us", "sim_throughput_kops", "host_ops_per_s", "setup_s"} {
				if e2e[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, e2e[name])
				}
			}

			rep, err = w.traced(p)
			if err != nil {
				t.Fatal(err)
			}
			layers := checkMetrics(t, rep, bf.PerLayer)
			var shares float64
			for name, v := range layers {
				if strings.HasSuffix(name, ".host_share") {
					shares += v
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("host shares sum to %v, want 1 ± 0.01", shares)
			}
		})
	}
}

// protoBuf hand-encodes protobuf messages for TestProfileReducer.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *protoBuf) bytes(num int, b []byte) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

// TestProfileReducer decodes a hand-built gzipped profile.proto and checks
// where each sample is charged.
func TestProfileReducer(t *testing.T) {
	strs := []string{"",
		"runtime.chanrecv",                              // 1
		"rpcoib/internal/sim.(*Proc).block",             // 2
		"runtime.gcBgMarkWorker",                        // 3
		"runtime.schedule",                              // 4
		"runtime.memmove",                               // 5
		"rpcoib/internal/wire.(*DataOutput).WriteBytes", // 6
		"rpcoib/internal/core.(*Client).issue",          // 7
		"rpcoib/internal/bench.RunHammer.func3",         // 8
		"main.(*opLoop).done",                           // 9
		"rpcoib/internal/faultsim.Apply",                // 10
		"runtime.mallocgc",                              // 11
	}
	prof := &protoBuf{}
	// Functions: id i is named by string i.
	for i := 1; i < len(strs); i++ {
		prof.bytes(5, (&protoBuf{}).varint(1, uint64(i)).varint(2, uint64(i)).b)
	}
	// Locations: id i holds function i, except location 20, where wire's
	// WriteBytes is inlined into core's issue (innermost line first).
	for i := 1; i < len(strs); i++ {
		line := (&protoBuf{}).varint(1, uint64(i)).b
		prof.bytes(4, (&protoBuf{}).varint(1, uint64(i)).bytes(4, line).b)
	}
	inlined := (&protoBuf{}).varint(1, 20).
		bytes(4, (&protoBuf{}).varint(1, 6).b).
		bytes(4, (&protoBuf{}).varint(1, 7).b)
	prof.bytes(4, inlined.b)
	// Samples: location ids leaf first; packed ids, as the runtime writes
	// them for long stacks, and unpacked ones for short stacks.
	sample := func(count uint64, locs ...uint64) {
		var packed []byte
		for _, l := range locs {
			packed = binary.AppendUvarint(packed, l)
		}
		s := &protoBuf{}
		if len(locs) > 2 {
			s.bytes(1, packed)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, count), count*2e6))
		prof.bytes(2, s.b)
	}
	sample(5, 1, 2, 8)  // channel handoff under the kernel, run by the hammer: sim
	sample(3, 11, 3)    // allocation inside a GC worker: gc
	sample(4, 4)        // scheduler with no repository frame: runtime
	sample(2, 5, 20, 9) // memmove under inlined wire-in-core: wire
	sample(1, 8)        // the hammer's own closure: hammer
	sample(6, 11, 9)    // the benchmark's own allocation: perfbench
	sample(7, 5, 10, 7) // an internal package with no layer of its own: other
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := reduceProfile(samples)
	want := map[string]int64{"sim": 5, "gc": 3, "runtime": 4, "wire": 2, "hammer": 1, "perfbench": 6, "other": 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

// TestSelfTime checks the span self-time computation on overlapping
// children, one of which sticks out of its parent.
func TestSelfTime(t *testing.T) {
	span := func(start, dur int64) tracing.Span { return tracing.Span{StartNS: start, DurNS: dur} }
	kids := []tracing.Span{span(10, 20), span(20, 20), span(90, 30)}
	if got := selfTime(span(0, 100), kids); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
}
