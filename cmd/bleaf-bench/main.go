// Command bleaf-bench turns `go test -bench` output into the
// BENCH_step.json perf-trajectory record: it reads benchmark result
// lines on stdin, aggregates repeated runs of the same benchmark
// (-count=N) by keeping the minimum ns/op (the least-noise estimate of
// the true cost on a time-shared machine), the sample standard
// deviation of ns/op across the repetitions (so a flat scaling curve
// can be told apart from noise), and the maximum allocs/op (the
// conservative regression bound). The record is a JSON object
//
//	{"env": {...}, "step_ns_per_el": N, "benchmarks": {name: {ns_op, stddev_ns, allocs_op, runs, ns_per_el}}}
//
// where env captures the machine the numbers were taken on: go
// version, GOOS/GOARCH, CPU count and GOMAXPROCS. Benchmarks that
// report the per-element custom metric (b.ReportMetric(..., "ns/el"))
// carry it per entry, and the best of them is promoted to the
// top-level step_ns_per_el headline — the repo's single-number
// step-path trajectory, gated by -compare like any ns/op. Records
// written by older versions (a flat name → entry map, no env or
// headline) are still read.
//
// Usage:
//
//	go test -bench 'BenchmarkLagrangianStep' -benchmem -count=5 . | bleaf-bench -o BENCH_step.json
//	bleaf-bench -compare old.json new.json          # exit 1 on regression, 2 on error
//
// With -merge, entries already present in the -o file are loaded first
// and the new results overlaid on top (same name → replaced, new name →
// added), so a bench run that adds an axis — say BenchmarkParallelStep
// gaining a ranks dimension — extends the record instead of erasing the
// benchmarks it didn't re-run. The env block always describes the
// current run.
//
// With -compare, the two records are diffed benchmark by benchmark: a
// name whose ns/op grew by more than -threshold (fraction, default
// 0.05) or whose allocs/op grew at all is a regression, and any
// regression makes the exit status 1 — `make bench-compare` wires this
// as the perf gate against the committed BENCH_step.json. Records from
// hosts with different CPU counts are refused with exit status 2.
//
// Names are recorded exactly as go test emits them (including any
// GOMAXPROCS suffix): stripping the "-N" suffix would collide with
// sub-benchmark names that legitimately end in "-N" ("threads-4") on
// single-core machines, where go test appends no suffix at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// resultLine matches e.g.
//
//	BenchmarkLagrangianStep-8   50   2715986 ns/op   0 B/op   0 allocs/op
//	BenchmarkStepThreads/threads-4   20   123 ns/op
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

var allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)

// nsPerElField matches the per-element custom metric the step
// benchmarks report (b.ReportMetric(..., "ns/el")).
var nsPerElField = regexp.MustCompile(`([0-9.]+) ns/el`)

// Entry is one benchmark's aggregated record.
type Entry struct {
	NsOp     float64 `json:"ns_op"`
	StdDevNs float64 `json:"stddev_ns"`
	AllocsOp float64 `json:"allocs_op"`
	Runs     int     `json:"runs"`
	// NsPerEl is the benchmark's per-element step cost where reported
	// (minimum across repetitions, like NsOp); 0 when the benchmark
	// has no per-element metric.
	NsPerEl float64 `json:"ns_per_el,omitempty"`

	// Accumulators for the running stddev; unexported so they never
	// reach the JSON record.
	sum, sumsq float64
}

// Env describes the machine a record was taken on.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Record is the on-disk schema: environment metadata, the headline
// metric, and the benchmark map.
type Record struct {
	Env Env `json:"env"`
	// StepNsPerEl is the headline: the best (minimum) per-element step
	// cost across every benchmark that reports the ns/el metric — the
	// repo's single-number step-path trajectory. Derived from
	// Benchmarks at write time, so merges recompute it; -compare gates
	// on it like on any ns/op, at the same threshold.
	StepNsPerEl float64           `json:"step_ns_per_el,omitempty"`
	Benchmarks  map[string]*Entry `json:"benchmarks"`
}

// headline returns the minimum reported ns/el across entries (0 when
// no benchmark reports the metric).
func headline(entries map[string]*Entry) float64 {
	best := 0.0
	for _, e := range entries {
		if e.NsPerEl > 0 && (best == 0 || e.NsPerEl < best) {
			best = e.NsPerEl
		}
	}
	return best
}

func currentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	merge := flag.Bool("merge", false, "keep entries already in the -o file that this run does not replace")
	compare := flag.Bool("compare", false, "compare two record files (old new); exit 1 on regression")
	threshold := flag.Float64("threshold", 0.05, "ns/op growth fraction that counts as a regression under -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bleaf-bench: -compare needs exactly two record files: old new")
			os.Exit(2)
		}
		regressions, err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bleaf-bench:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	entries, err := aggregate(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bleaf-bench:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "bleaf-bench: no benchmark results on stdin")
		os.Exit(1)
	}
	if *merge {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "bleaf-bench: -merge requires -o")
			os.Exit(1)
		}
		if err := mergePrevious(*out, entries); err != nil {
			fmt.Fprintln(os.Stderr, "bleaf-bench:", err)
			os.Exit(1)
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bleaf-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Record{Env: currentEnv(), StepNsPerEl: headline(entries), Benchmarks: entries}); err != nil {
		fmt.Fprintln(os.Stderr, "bleaf-bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		names := make([]string, 0, len(entries))
		for n := range entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := entries[n]
			fmt.Printf("%-48s %14.0f ns/op ±%-10.0f %6.0f allocs/op (%d runs)\n",
				n, e.NsOp, e.StdDevNs, e.AllocsOp, e.Runs)
		}
	}
}

// loadRecord reads a record file in either schema: the current
// {env, benchmarks} object or the legacy flat name → entry map.
func loadRecord(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err == nil && rec.Benchmarks != nil {
		return &rec, nil
	}
	var flat map[string]*Entry
	if err := json.Unmarshal(raw, &flat); err != nil || len(flat) == 0 {
		return nil, fmt.Errorf("%s is not a benchmark record", path)
	}
	// Entries in a legacy flat file are benchmarks, but any junk JSON
	// object would also parse: require ns_op to be present somewhere.
	ok := false
	for _, e := range flat {
		if e != nil && e.NsOp > 0 {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("%s is not a benchmark record", path)
	}
	return &Record{Benchmarks: flat}, nil
}

// mergePrevious folds entries from an existing record file into the
// freshly aggregated set. Fresh results win name collisions; a missing
// file is not an error (first run with -merge behaves like plain -o).
func mergePrevious(path string, entries map[string]*Entry) error {
	prev, err := loadRecord(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for name, e := range prev.Benchmarks {
		if _, ok := entries[name]; !ok {
			entries[name] = e
		}
	}
	return nil
}

// compareRecords diffs two records and reports the number of
// regressions: benchmarks whose ns/op grew by more than threshold
// (fractional) or whose allocs/op grew at all. Benchmarks present in
// only one record are listed but never count as regressions — axes
// come and go as the suite evolves.
//
// Records taken on hosts with different CPU counts are refused: the
// threads and ranks axes measure the core count as much as the code,
// so a diff across hosts says nothing about a change. A record with
// no env (num_cpu 0, the legacy schema) cannot be checked; it is
// compared with a warning.
func compareRecords(w io.Writer, oldPath, newPath string, threshold float64) (int, error) {
	oldRec, err := loadRecord(oldPath)
	if err != nil {
		return 0, err
	}
	newRec, err := loadRecord(newPath)
	if err != nil {
		return 0, err
	}
	oc, nc := oldRec.Env.NumCPU, newRec.Env.NumCPU
	switch {
	case oc > 0 && nc > 0 && oc != nc:
		return 0, fmt.Errorf("%s was recorded with num_cpu %d and %s with num_cpu %d: records from different hosts are not comparable; re-record the baseline on this host (make bench)",
			oldPath, oc, newPath, nc)
	case oc == 0 || nc == 0:
		fmt.Fprintf(w, "warning: a record carries no host env (num_cpu %d vs %d); comparing without the host check\n", oc, nc)
	}
	names := make([]string, 0, len(newRec.Benchmarks))
	for n := range newRec.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-48s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		ne := newRec.Benchmarks[n]
		oe, ok := oldRec.Benchmarks[n]
		if !ok {
			fmt.Fprintf(w, "%-48s %14s %14.0f %9s\n", n, "-", ne.NsOp, "new")
			continue
		}
		delta := (ne.NsOp - oe.NsOp) / oe.NsOp
		verdict := ""
		if delta > threshold {
			verdict = "  REGRESSION"
			regressions++
		} else if delta < -threshold {
			verdict = "  improved"
		}
		if ne.AllocsOp > oe.AllocsOp {
			verdict += fmt.Sprintf("  ALLOCS %g -> %g", oe.AllocsOp, ne.AllocsOp)
			regressions++
		}
		fmt.Fprintf(w, "%-48s %14.0f %14.0f %+8.1f%%%s\n", n, oe.NsOp, ne.NsOp, 100*delta, verdict)
	}
	for n := range oldRec.Benchmarks {
		if _, ok := newRec.Benchmarks[n]; !ok {
			fmt.Fprintf(w, "%-48s %14.0f %14s %9s\n", n, oldRec.Benchmarks[n].NsOp, "-", "gone")
		}
	}
	// The headline gates at the same threshold. Recomputed from the
	// entries rather than trusting the stored field, so a stale or
	// hand-edited step_ns_per_el cannot dodge (or fake) the gate.
	oh, nh := headline(oldRec.Benchmarks), headline(newRec.Benchmarks)
	if oh > 0 && nh > 0 {
		delta := (nh - oh) / oh
		verdict := ""
		if delta > threshold {
			verdict = "  REGRESSION"
			regressions++
		} else if delta < -threshold {
			verdict = "  improved"
		}
		fmt.Fprintf(w, "%-48s %14.2f %14.2f %+8.1f%%%s\n", "step_ns_per_el (headline)", oh, nh, 100*delta, verdict)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s) beyond %.0f%% threshold\n", regressions, 100*threshold)
	}
	return regressions, nil
}

func aggregate(sc *bufio.Scanner) (map[string]*Entry, error) {
	entries := map[string]*Entry{}
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		allocs := 0.0
		if am := allocsField.FindStringSubmatch(m[4]); am != nil {
			allocs, _ = strconv.ParseFloat(am[1], 64)
		}
		nsel := 0.0
		if nm := nsPerElField.FindStringSubmatch(m[4]); nm != nil {
			nsel, _ = strconv.ParseFloat(nm[1], 64)
		}
		e, ok := entries[name]
		if !ok {
			entries[name] = &Entry{NsOp: ns, AllocsOp: allocs, NsPerEl: nsel, Runs: 1, sum: ns, sumsq: ns * ns}
			continue
		}
		if ns < e.NsOp {
			e.NsOp = ns
		}
		if allocs > e.AllocsOp {
			e.AllocsOp = allocs
		}
		if nsel > 0 && (e.NsPerEl == 0 || nsel < e.NsPerEl) {
			e.NsPerEl = nsel
		}
		e.Runs++
		e.sum += ns
		e.sumsq += ns * ns
		// Sample standard deviation over the repetitions seen so far
		// (0 for a single run); clamp the cancellation residue.
		n := float64(e.Runs)
		varr := (e.sumsq - e.sum*e.sum/n) / (n - 1)
		if varr < 0 {
			varr = 0
		}
		e.StdDevNs = math.Sqrt(varr)
	}
	return entries, sc.Err()
}
