// Command atombench is the repository's benchmark. It builds an Atom
// deployment, drives one workload through the public surfaces — the
// daemon's binary fast path, the continuous atom.Service and, on
// nizk-tcp, a distributed.Cluster of TCP member actors — checks every
// output, and prints the metrics as one JSON object on the last line of
// standard output:
//
//	atombench --workload ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced pass.
// --trace 1 runs an untraced and a traced pass of the same inputs and
// reports the per-layer metrics, every layer's self time, the crypto
// layers timed at the workload's operand shapes, and the tracing
// overhead (traced minus untraced, per end-to-end metric). See README.md
// for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"atom/internal/distributed"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	attempted int
	failed    int      // rejected + unacked + unpublished + wrong-output messages
	problems  []string // failed correctness gates; any fails the run

	throughput    float64 // msgs/s
	p50, p95, p99 float64 // ms
	cpuPerMsg     float64 // ms
	rssMB         float64

	// report holds the workload's metrics under their specific names
	// (admit_capacity_msgs_per_s, drain_msgs_per_s, e2e_p99_ms, …) for
	// the human-readable summary.
	report []named

	genLagP99 float64 // ms
	pregen    float64 // s
	published int
	cluster   distributed.ClusterStats
	shape     shape
}

type named struct {
	name, unit string
	value      float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// endToEnd returns the end-to-end metrics under their BENCHMARK.json
// names, which every workload reports.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":               {median(o.setup), "s"},
		"throughput_msgs_per_s": {o.throughput, "msgs/s"},
		"latency_p50_ms":        {o.p50, "ms"},
		"latency_p95_ms":        {o.p95, "ms"},
		"cpu_ms_per_msg":        {o.cpuPerMsg, "ms"},
		"peak_rss_mb":           {o.rssMB, "MiB"},
	}
}

// workload is one benchmark workload.
type workload struct {
	run func(seed int64, seconds int, tr *tracer) (*outcome, error)
	// bypassed lists per-layer metric name prefixes that must read zero:
	// layers the workload never reaches.
	bypassed []string
}

var workloads = map[string]workload{
	"ingest":     {runIngest, []string{"protocol.mix.", "distributed.", "transport."}},
	"drain-trap": {runDrainTrap, []string{"distributed.", "transport.", "protocol.mix.proofs_verified"}},
	"nizk-tcp":   {runNizkTCP, nil},
}

func main() {
	name := flag.String("workload", "", "workload: ingest, drain-trap or nizk-tcp")
	seed := flag.Int64("seed", 1, "workload seed: messages, arrival schedule, Config.Seed and client entropy")
	seconds := flag.Int("seconds", 20, "run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, self times and tracing overhead")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "atombench: need --workload (ingest, drain-trap or nizk-tcp), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "atombench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds int, traced bool) error {
	h, err := json.Marshal(fingerprint("."))
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", h)
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", name, seed, seconds, traced)

	base, err := w.run(seed, seconds, nil)
	if err != nil {
		return err
	}
	summarize("untraced", base)
	res := result{
		Attempted: base.attempted,
		Failed:    base.failed,
		Metrics:   base.endToEnd(),
	}
	problems := base.problems
	if traced {
		runtime.GC()
		debug.FreeOSMemory()
		tr := newTracer()
		o, err := w.run(seed, seconds, tr)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		summarize("traced", o)
		m := tr.layerMetrics(o.published, o.cluster)
		crypto, err := cryptoMetrics(o.shape, seed)
		if err != nil {
			return fmt.Errorf("crypto timings: %w", err)
		}
		for k, v := range crypto {
			m[k] = v
		}
		m["gen.lag_p99_ms"] = metric{o.genLagP99, "ms"}
		m["gen.pregen_s"] = metric{o.pregen, "s"}
		with, without := o.endToEnd(), base.endToEnd()
		for k, v := range with {
			m["overhead."+k] = metric{v.Value - without[k].Value, v.Unit}
		}
		problems = append(problems, o.problems...)
		problems = append(problems, bypassViolations(w.bypassed, m)...)
		res.Attempted += o.attempted
		res.Failed += o.failed
		res.Metrics = m
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", k, v.Value))
			res.Metrics[k] = metric{0, v.Unit}
		}
	}
	for _, p := range problems {
		fmt.Printf("FAIL %s\n", p)
	}
	res.Correct = len(problems) == 0
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness check(s) failed", len(problems))
	}
	return nil
}

// bypassViolations lists the metrics under the bypassed prefixes that
// are not zero.
func bypassViolations(bypassed []string, m map[string]metric) []string {
	var out []string
	for k, v := range m {
		for _, p := range bypassed {
			if strings.HasPrefix(k, p) && v.Value != 0 {
				out = append(out, fmt.Sprintf("bypass: %s = %v on a workload that never reaches it", k, v.Value))
			}
		}
	}
	sort.Strings(out)
	return out
}

// summarize prints one pass's workload-specific metrics.
func summarize(pass string, o *outcome) {
	q1, q3 := quartiles(o.setup)
	fmt.Printf("%s pass: set-up %v s: median %.3f, quartiles %.3f–%.3f\n", pass, fmtSlice(o.setup), median(o.setup), q1, q3)
	for _, n := range o.report {
		fmt.Printf("  %-28s %14.4f %s\n", n.name, n.value, n.unit)
	}
	fmt.Printf("  %-28s %14.4f %s\n", "fail_ratio", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-44s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fmtSlice(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// timeout bounds every wait on the system, well inside the 180 s a run
// may take.
const timeout = 60 * time.Second
