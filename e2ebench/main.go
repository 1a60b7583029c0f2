// Command e2ebench is the deck-to-result benchmark: it runs one of three
// workloads in-process, checks the program's outputs, and prints every
// metric by name and unit, ending with one JSON line:
//
//	bash e2ebench/run.sh --workload noh-2rank --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer metrics, writes the spans to
// .bench_build/trace/ and reports the tracing overhead. README.md in
// this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bookleaf/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the program sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"l1_rho", "density"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"slo_share", "share"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics, named after the modules. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"hydro.qforce_s", "s"},
	{"hydro.lagupdate_s", "s"},
	{"hydro.getdt_s", "s"},
	{"hydro.getacc_s", "s"},
	{"hydro.ns_per_el_step", "ns"},
	{"ale.alestep_s", "s"},
	{"ale.getmesh_s", "s"},
	{"ale.getfvol_s", "s"},
	{"ale.advect_s", "s"},
	{"ale.update_s", "s"},
	{"typhon.comms_s", "s"},
	{"typhon.halo_wait_s", "s"},
	{"typhon.msgs", "count"},
	{"typhon.words", "count"},
	{"config.parse_ms", "ms"},
	{"setup.build_ms", "ms"},
	{"partition.split_ms", "ms"},
	{"hydro.state_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_tail_ms", "ms"},
	{"serve.result_bytes", "bytes"},
	{"serve.journal_bytes", "bytes"},
	{"machine.predict_s", "s"},
	{"machine.est_ratio", "ratio"},
	{"machine.calibration_scale", "ratio"},
	{"bookleaf.residual_s", "s"},
	{"bench.gen_late_ms", "ms"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_p50_ms", "ms"},
}

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	work    string  // scratch directory inside the checkout
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	failures  []string // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records a named correctness check.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		o.failures = append(o.failures, name)
	}
	fmt.Printf("check %-28s %-4s %s\n", name, status, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"noh-2rank":    nohTwoRank,
	"sod-eulerian": sodEulerian,
	"served-sweep": servedSweep,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness checks failed")

func run() error {
	workload := flag.String("workload", "", "workload: noh-2rank, sod-eulerian or served-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("decks"); err != nil {
		return fmt.Errorf("run from the root of a bookleaf checkout: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: time.Duration(*secs) * time.Second, work: work}
	if *trace == 1 {
		e.tr = newTracer()
	}

	host := hostRecord()
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *secs, *trace)

	out, err := wl(e)
	if err != nil {
		return err
	}

	defs, vals := endToEnd, out.e2e
	if e.tr != nil {
		defs, vals = perLayer, out.layers
		if err := reportTrace(e.tr, *workload, *seed); err != nil {
			return err
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", *workload, d.name)
		}
		fmt.Printf("metric %-28s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := len(out.failures) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed,
		"metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(out.failures, ", "))
	}
	return nil
}

// reportTrace writes the traced run's spans and prints the per-phase
// summary bleaf-trace would print for the file, and each layer's self
// time.
func reportTrace(tr *tracer, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace.json", workload, seed))
	tf, err := tr.writeTrace(path)
	if err != nil {
		return err
	}
	fmt.Printf("trace written to %s (%d spans); bleaf-trace summary:\n", path, len(tf.TraceEvents))
	if err := obs.WriteSummaryTable(os.Stdout, obs.Summarise(tf)); err != nil {
		return err
	}
	fmt.Printf("%-34s %6s %12s %12s\n", "layer self time", "spans", "total_s", "self_s")
	for _, r := range tr.selfTimes() {
		fmt.Printf("%-34s %6d %12.6f %12.6f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
	return nil
}

// host describes the machine a result was taken on. Results from hosts
// with a different num_cpu are not comparable.
type host struct {
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Caches     map[string]string `json:"caches"`
}

func hostRecord() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Caches: cacheSizes(),
	}
}

// cacheSizes reads CPU 0's cache hierarchy from sysfs (Linux), keyed
// like "L1d", "L2", "L3". Elsewhere it is empty.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		key := "L" + read("level")
		switch read("type") {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = read("size")
	}
	return out
}
