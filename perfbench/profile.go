package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate: five times pprof's default, so a
// window of a few host seconds yields enough samples per layer.
const profileHz = 500

// hostLayers lists every layer a CPU sample can be charged to. Each
// internal package the workloads reach is its own layer, named after the
// package; internal/bench is "hammer" (the only bench code the benchmark
// runs), the benchmark's own code is "perfbench", samples under a GC
// worker are "gc", samples with no repository frame are "runtime", and any
// other repository package is "other".
var hostLayers = []string{
	"sim", "runtime", "gc", "netsim", "ibverbs", "bufpool", "wire", "core",
	"hbase", "hdfs", "ycsb", "metrics", "tracing", "hammer",
	"cluster", "exec", "transport", "perfmodel", "trace", "perfbench", "other",
}

const repoPrefix = "rpcoib/internal/"

// gcWorkers are the runtime's background collection goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf charges one sample, given its stack from leaf to root, to a layer:
// a GC worker's samples to "gc"; otherwise the innermost repository frame
// decides, so runtime work done under a layer (the kernel's channel
// handoff, an allocation) counts as that layer's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "perfbench"
		}
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "bench" {
			return "hammer"
		}
		for _, l := range hostLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// stackSample is one profile sample: its stack (leaf first) and count.
type stackSample struct {
	stack []string
	count int64
}

// reduceProfile sums sample counts per layer.
func reduceProfile(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.count
	}
	return out
}

// profiler records a CPU profile of this process.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error {
	// Raising the rate before StartCPUProfile makes its own 100 Hz request
	// a no-op (the runtime notes that on stderr).
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() { pprof.StopCPUProfile() }

// layers decodes the recorded profile and reduces it per layer.
func (p *profiler) layers() (map[string]int64, error) {
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return reduceProfile(samples), nil
}

// decodeProfile reads the samples of a gzipped pprof profile.proto: just
// the fields needed to name each frame. Sample.value[0] is the count.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d in field %d", typ, num)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
