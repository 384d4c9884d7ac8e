package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"
)

// Phase names. Each runs in its own child process (runChild).
const (
	// phaseSteady sets up, runs the virtual measuring window, and keeps the
	// closed loop going until the steady phase's fixed op count is done too.
	phaseSteady = "steady"
	// phaseWindow sets up and runs the window's replayed part only,
	// reading the live heap as the steady phase does: the same-seed replay.
	phaseWindow = "window"
	// phaseUntraced runs the window's replayed part with no heap readings:
	// the host-rate baseline of a traced invocation.
	phaseUntraced = "untraced"
	// phaseSetup sets up and stops at the first timed op.
	phaseSetup = "setup"
	// phaseTraced is phaseUntraced with metrics, spans and a CPU profile on.
	phaseTraced = "traced"
	// phaseHammerZero and phaseHammerFull time bench.RunHammer at a
	// near-zero and at the full virtual duration; phaseHammerZeroTraced and
	// phaseHammerTraced are the same under the CPU profiler.
	phaseHammerZero       = "hammer-zero"
	phaseHammerFull       = "hammer-full"
	phaseHammerZeroTraced = "hammer-zero-traced"
	phaseHammerTraced     = "hammer-traced"
)

// virtualStats are the virtual-clock results of one measuring window. They
// depend on the seed alone, so a replay must reproduce them exactly.
type virtualStats struct {
	Samples int     `json:"samples"`
	MeanUS  float64 `json:"mean_us"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	Kops    float64 `json:"kops"`
	// Kinds splits the latencies by operation kind (ycsb_mix: get, put).
	Kinds map[string]latencyStats `json:"kinds,omitempty"`
	// Attempts counts tries including refused ones (namenode_hammer's busy
	// responses); equal to the completed ops elsewhere.
	Attempts int64 `json:"attempts"`
}

// latencyStats summarizes one kind's virtual latencies.
type latencyStats struct {
	Samples int     `json:"samples"`
	MeanUS  float64 `json:"mean_us"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

// phaseResult is what a child phase hands back to the parent.
type phaseResult struct {
	SetupS  float64      `json:"setup_s"`
	Virtual virtualStats `json:"virtual"`

	// Check and CheckAllocsPerOp are the virtual results and the heap
	// allocations per op over the window's first simSpec.check, the part
	// a same-seed replay repeats op for op.
	Check            virtualStats `json:"check"`
	CheckAllocsPerOp float64      `json:"check_allocs_per_op"`

	// Steady-phase host figures.
	Ops         int64   `json:"ops"`
	HostS       float64 `json:"host_s"`
	HostOpsPerS float64 `json:"host_ops_per_s"`
	Mallocs     float64 `json:"mallocs"`
	AllocBytes  float64 `json:"alloc_bytes"`
	LiveHeapMB  float64 `json:"live_heap_mb"`

	// Layers holds the per-layer metrics of a traced phase, and Profile the
	// CPU samples charged to each layer.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Profile map[string]int64   `json:"profile,omitempty"`
}

// runChild runs one phase in a fresh process of this binary and decodes its
// result. The child's stderr passes through; a failed check there fails the
// parent too.
func runChild(p params, phase string) (*phaseResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", p.workload, "--seed", strconv.FormatInt(p.seed, 10),
		"--seconds", strconv.Itoa(max(1, p.seconds)), "--phase", phase,
		"--short="+strconv.FormatBool(p.short))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s phase: %w", phase, err)
	}
	var res phaseResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s phase output: %w", phase, err)
	}
	return &res, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUS returns the q-quantile of the virtual latencies (nearest rank)
// in microseconds. sorted must be in ascending order.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}

// summarize returns the mean, median and p99 of lat, which it leaves
// unchanged.
func summarize(lat []time.Duration) latencyStats {
	lat = slices.Clone(lat)
	slices.Sort(lat)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	st := latencyStats{Samples: len(lat), P50US: quantileUS(lat, 0.5), P99US: quantileUS(lat, 0.99)}
	if len(lat) > 0 {
		st.MeanUS = float64(sum) / float64(len(lat)) / float64(time.Microsecond)
	}
	return st
}

// sameSig4 reports whether a and b agree to four significant figures: they
// differ by at most half a unit in the fourth figure of the larger.
func sameSig4(a, b float64) bool {
	return math.Abs(a-b) <= 5e-4*math.Max(math.Abs(a), math.Abs(b))
}

// mib converts bytes to MiB.
func mib(b float64) float64 { return b / (1 << 20) }
