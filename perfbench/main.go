// Command perfbench is the repository's end-to-end tuning benchmark. It
// drives the public entry points (ansor.TuneNetwork, fleet.Broker and
// fleet.Worker, regserver.Open and regserver.Client, registry.LoadFile)
// from one process, checks that every output is correct, and prints one
// JSON result line:
//
//	perfbench -workload tune-local -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// observability off; with -trace 1 it carries the per-layer metrics,
// folded from an in-memory event stream and from spans the benchmark
// records around public calls. README.md in this directory describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every metric a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"call_cpu_ms", "ms"},
	{"net_latency_us", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is every metric a -trace 1 run reports, on every workload.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ansor.call_wall_ms", "ms"},
	{"ansor.programs_per_s", "programs/s"},
	{"xgb.train_s", "s"},
	{"xgb.refits", "count"},
	{"xgb.boosts", "count"},
	{"xgb.score_s", "s"},
	{"evo.search_s", "s"},
	{"anno.sample_s", "s"},
	{"measure.batch_s", "s"},
	{"measure.batch_p99_ms", "ms"},
	{"sched.rounds", "count"},
	{"sched.waves", "count"},
	{"sched.round_p50_ms", "ms"},
	{"sched.round_p99_ms", "ms"},
	{"sched.trials_to_95pct", "trials"},
	{"sketch.generate_s", "s"},
	{"ir.lower_us", "us"},
	{"sim.time_us", "us"},
	{"feat.extract_us", "us"},
	{"measure.replay_us", "us"},
	{"te.dag_encode_us", "us"},
	{"te.dag_decode_us", "us"},
	{"te.dag_bytes", "bytes"},
	{"fleet.lease_wait_p50_ms", "ms"},
	{"fleet.lease_wait_p99_ms", "ms"},
	{"fleet.bytes_per_program", "bytes"},
	{"fleet.lease_expiries", "count"},
	{"fleet.duplicate_results", "count"},
	{"regserver.open_s", "s"},
	{"regserver.lookup_p50_ms", "ms"},
	{"regserver.lookup_p99_ms", "ms"},
	{"regserver.publish_p50_ms", "ms"},
	{"regserver.publish_p99_ms", "ms"},
	{"regserver.publish_late_p99_ms", "ms"},
	{"regserver.records_offered", "count"},
	{"regserver.improve_ratio", "ratio"},
	{"regserver.publish_errors", "count"},
	{"regserver.store_bytes", "bytes"},
	{"regserver.best_hit_ratio", "ratio"},
	{"regserver.best_not_modified", "count"},
	{"ansor.apply_p99_ms", "ms"},
	{"obs.events", "count"},
	{"obs.events_dropped", "count"},
	{"obs.trace_overhead_frac", "frac"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"tune-local": func(r *run) error { return tuneWorkload(r, false) },
	"tune-fleet": func(r *run) error { return tuneWorkload(r, true) },
	"serve-best": serveWorkload,
}

// run is the state of one benchmark invocation: its inputs, the
// metrics it has measured, and its operation and check accounting.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for logs and stores, removed at exit

	metrics   map[string]float64
	attempted int
	failed    int
	report    []string // human-readable lines printed before the result
}

// count counts one attempted operation or correctness check, named by
// what; a non-nil err counts it failed, and the run is then not correct.
func (r *run) count(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s failed: %v\n", r.workload, what, err)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// zero reports layers the workload does not exercise.
func (r *run) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

func (r *run) logf(format string, args ...interface{}) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "workload: tune-local, tune-fleet, serve-best")
		seed     = flag.Int64("seed", 1, "input seed; equal seeds give equal inputs")
		secs     = flag.Int("seconds", 30, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics")
		work     = flag.String("work", ".bench_build", "directory for the run's scratch files")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*secs) * time.Second,
		trace: *trace == 1, dir: dir, metrics: map[string]float64{}}
	if err := drive(r); err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMB())
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultOut{Correct: r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printReport(r, defs)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printReport prints the human-readable view: the run's report lines,
// then every reported metric by name with its unit.
func printReport(r *run, defs []metricDef) {
	mode := "end-to-end"
	if r.trace {
		mode = "per-layer"
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%.0f %s\n", r.workload, r.seed, r.seconds.Seconds(), mode)
	for _, l := range r.report {
		fmt.Println(l)
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, r.metrics[n], units[n])
	}
	fmt.Printf("  fail_frac %d/%d\n", r.failed, r.attempted)
}

// setupTimer times a run's repeated set-ups. setup_s is their median
// process CPU time, which host steal does not inflate; the wall times
// go to the report. Each set-up starts from a collected heap, so it is
// not charged for the garbage of the one before.
type setupTimer struct{ cpu, wall []float64 }

func (t *setupTimer) measure(fn func() error) error {
	runtime.GC()
	w0, c0 := time.Now(), cpuSeconds()
	err := fn()
	t.wall = append(t.wall, time.Since(w0).Seconds())
	t.cpu = append(t.cpu, cpuSeconds()-c0)
	return err
}

func (t *setupTimer) report(r *run) {
	r.set("setup_s", median(t.cpu))
	r.logf("  set-up: CPU %v s, wall %v s", roundAll(t.cpu, 3), roundAll(t.wall, 3))
}

// subdir makes a fresh directory under the run's scratch directory.
func (r *run) subdir(name string) (string, error) {
	d := filepath.Join(r.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
