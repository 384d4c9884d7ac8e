// Command perfbench is the repository's benchmark. It runs one of four
// seeded closed-loop workloads through the public APIs of the simulated
// RPCoIB stack, checks the program's outputs, and reports every metric on
// one of two clocks:
//
//   - virtual time: what the modelled design delivers (the paper's RPC
//     latency and throughput). These numbers are a pure function of the
//     seed, and a same-seed replay must reproduce them bit for bit.
//   - host time and the Go allocator: what the simulator costs to run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pingpong --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run instead. Every measurement phase runs in a fresh child
// process of this binary (see phases.go), so one phase's heap and goroutines
// never bleed into the next one's host numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// params are the command-line inputs every phase receives.
type params struct {
	workload string
	seed     int64
	// seconds sizes the steady phase: each workload does the fixed amount
	// of work that takes about this many host seconds on the reference
	// machine (see simSpec.hostRate), so every commit measures the same ops.
	seconds int
	// short shrinks every workload to a tiny run for the benchmark's own
	// tests; the steady phase then ends with the virtual window.
	short bool
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what one invocation prints.
type report struct {
	attempted int64
	failed    int64
	metrics   []metric
	notes     []string // human-readable lines printed before the JSON result
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: how to run a timed invocation, a
// traced invocation, and each child phase.
type workload struct {
	why    string
	timed  func(p params) (*report, error)
	traced func(p params) (*report, error)
	phase  func(p params, phase string) (*phaseResult, error)
}

var workloads = map[string]workload{
	"pingpong":        simWorkload(pingpongSpec),
	"bulk":            simWorkload(bulkSpec),
	"ycsb_mix":        simWorkload(ycsbSpec),
	"namenode_hammer": hammerWorkload(),
}

func main() {
	name := flag.String("workload", "", "workload: pingpong | bulk | ycsb_mix | namenode_hammer")
	seed := flag.Int64("seed", 1, "workload seed; the benchmark derives every input from it")
	seconds := flag.Int("seconds", 10, "sizes the steady phase: the work that takes about this many host seconds on the reference machine")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	phase := flag.String("phase", "", "run one measurement phase in this process (used by the parent invocation)")
	short := flag.Bool("short", false, "tiny workloads, for the benchmark's own tests")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	p := params{workload: *name, seed: *seed, seconds: *seconds, short: *short}
	if p.short {
		p.seconds = 0
	}

	if *phase != "" {
		res, err := w.phase(p, *phase)
		if err != nil {
			fatalf("%s %s phase: %v", *name, *phase, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%s %s phase: %v", *name, *phase, err)
		}
		return
	}

	run := w.timed
	if *trace == 1 {
		run = w.traced
	}
	rep, err := run(p)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	printReport(*name, rep)
}

// printReport writes the human-readable lines, then the one-line JSON result.
func printReport(name string, rep *report) {
	fmt.Printf("workload %s: %s\n", name, workloads[name].why)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	sort.Slice(rep.metrics, func(i, j int) bool { return rep.metrics[i].name < rep.metrics[j].name })
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range rep.metrics {
		fmt.Printf("  %-36s %16.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, rep.attempted, rep.failed, metrics})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// fatalf reports a failed check or run and exits non-zero without printing
// a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
