package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAggregate(t *testing.T) {
	in := `goos: linux
BenchmarkLagrangianStep-8   	      50	   2715986 ns/op	       0 B/op	       0 allocs/op
BenchmarkLagrangianStep-8   	      50	   2600000 ns/op	       0 B/op	       0 allocs/op
BenchmarkStepThreads/threads-4   	      20	    900000 ns/op
BenchmarkStepThreads/threads-1   	      20	   1800000 ns/op
PASS
`
	got, err := aggregate(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d entries, want 3: %v", len(got), got)
	}
	e := got["BenchmarkLagrangianStep-8"]
	if e == nil || e.NsOp != 2600000 || e.AllocsOp != 0 || e.Runs != 2 {
		t.Fatalf("LagrangianStep entry wrong: %+v", e)
	}
	// Sample stddev of {2715986, 2600000} is |diff|/sqrt(2).
	want := math.Abs(2715986-2600000) / math.Sqrt2
	if math.Abs(e.StdDevNs-want) > 1 {
		t.Fatalf("stddev %v, want %v", e.StdDevNs, want)
	}
	// Sub-benchmarks ending in -N must stay distinct.
	if got["BenchmarkStepThreads/threads-4"] == nil || got["BenchmarkStepThreads/threads-1"] == nil {
		t.Fatalf("thread sub-benchmarks merged: %v", got)
	}
	if got["BenchmarkStepThreads/threads-4"].NsOp != 900000 {
		t.Fatalf("threads-4 ns/op wrong: %+v", got["BenchmarkStepThreads/threads-4"])
	}
	// A single repetition has no spread.
	if got["BenchmarkStepThreads/threads-4"].StdDevNs != 0 {
		t.Fatalf("single-run stddev %v, want 0", got["BenchmarkStepThreads/threads-4"].StdDevNs)
	}
}

func TestEntryJSONOmitsAccumulators(t *testing.T) {
	raw, err := json.Marshal(&Entry{NsOp: 1, Runs: 3, sum: 3, sumsq: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "sum") {
		t.Fatalf("accumulators leaked into JSON: %s", raw)
	}
	for _, field := range []string{"ns_op", "stddev_ns", "allocs_op", "runs"} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("field %s missing from JSON: %s", field, raw)
		}
	}
}

func TestCurrentEnvPopulated(t *testing.T) {
	env := currentEnv()
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" ||
		env.NumCPU < 1 || env.GOMAXPROCS < 1 {
		t.Fatalf("env not populated: %+v", env)
	}
}

func writeRecord(t *testing.T, path string, rec Record) {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreviousKeepsOldAxes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_step.json")
	writeRecord(t, path, Record{Env: currentEnv(), Benchmarks: map[string]*Entry{
		"BenchmarkLagrangianStep-8":      {NsOp: 2600000, Runs: 5},
		"BenchmarkStepThreads/threads-4": {NsOp: 900000, Runs: 5},
	}})
	// A later bench run re-measures one old name and adds a new axis.
	entries := map[string]*Entry{
		"BenchmarkStepThreads/threads-4":           {NsOp: 850000, Runs: 5},
		"BenchmarkParallelStep/ranks-4/overlap-on": {NsOp: 120000, Runs: 5},
	}
	if err := mergePrevious(path, entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %v", len(entries), entries)
	}
	if e := entries["BenchmarkLagrangianStep-8"]; e == nil || e.NsOp != 2600000 {
		t.Fatalf("old-only entry lost: %+v", e)
	}
	if e := entries["BenchmarkStepThreads/threads-4"]; e == nil || e.NsOp != 850000 {
		t.Fatalf("re-measured entry not replaced: %+v", e)
	}
	if entries["BenchmarkParallelStep/ranks-4/overlap-on"] == nil {
		t.Fatal("new axis missing")
	}
}

// Records written before the env/stddev schema (a flat name → entry
// map) must still merge.
func TestMergePreviousReadsLegacySchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_step.json")
	old := `{
  "BenchmarkLagrangianStep-8": {"ns_op": 2600000, "allocs_op": 0, "runs": 5}
}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := map[string]*Entry{"BenchmarkNew": {NsOp: 1, Runs: 1}}
	if err := mergePrevious(path, entries); err != nil {
		t.Fatal(err)
	}
	if e := entries["BenchmarkLagrangianStep-8"]; e == nil || e.NsOp != 2600000 {
		t.Fatalf("legacy entry lost: %+v", e)
	}
}

func TestMergePreviousMissingFileIsFine(t *testing.T) {
	entries := map[string]*Entry{"BenchmarkX": {NsOp: 1, Runs: 1}}
	if err := mergePrevious(filepath.Join(t.TempDir(), "absent.json"), entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries mutated: %v", entries)
	}
}

func TestMergePreviousRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"bad.json":   "not json",
		"empty.json": "{}",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mergePrevious(path, map[string]*Entry{}); err == nil {
			t.Fatalf("%s accepted as a record", name)
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	got, err := aggregate(bufio.NewScanner(strings.NewReader("no benchmarks here\n")))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeRecord(t, oldPath, Record{Benchmarks: map[string]*Entry{
		"BenchmarkA":    {NsOp: 1000, AllocsOp: 0, Runs: 5},
		"BenchmarkB":    {NsOp: 1000, AllocsOp: 0, Runs: 5},
		"BenchmarkC":    {NsOp: 1000, AllocsOp: 0, Runs: 5},
		"BenchmarkGone": {NsOp: 1, Runs: 1},
	}})
	writeRecord(t, newPath, Record{Benchmarks: map[string]*Entry{
		"BenchmarkA":   {NsOp: 1200, AllocsOp: 0, Runs: 5}, // +20%: regression
		"BenchmarkB":   {NsOp: 700, AllocsOp: 0, Runs: 5},  // improvement
		"BenchmarkC":   {NsOp: 1030, AllocsOp: 2, Runs: 5}, // allocs regression
		"BenchmarkNew": {NsOp: 1, Runs: 1},
	}})
	var buf bytes.Buffer
	n, err := compareRecords(&buf, oldPath, newPath, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("got %d regressions, want 2:\n%s", n, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSION", "improved", "ALLOCS 0 -> 2", "new", "gone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
	// A looser threshold forgives the ns/op growth but not the allocs.
	buf.Reset()
	n, err = compareRecords(&buf, oldPath, newPath, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("got %d regressions at 50%% threshold, want 1 (allocs):\n%s", n, buf.String())
	}
}

// The committed BENCH_step.json compared against itself is clean — the
// make bench-compare gate's identity case.
func TestCompareRecordsIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	writeRecord(t, path, Record{Env: currentEnv(), Benchmarks: map[string]*Entry{
		"BenchmarkA": {NsOp: 1000, Runs: 5},
	}})
	var buf bytes.Buffer
	n, err := compareRecords(&buf, path, path, 0.05)
	if err != nil || n != 0 {
		t.Fatalf("identity compare: %d regressions, err %v", n, err)
	}
}

// Step benchmarks report a per-element metric; the aggregator keeps
// the minimum across repetitions and promotes the best to the record
// headline.
func TestAggregateNsPerEl(t *testing.T) {
	in := `BenchmarkStepGrid/reorder=none/layout=soa-8     100   400000 ns/op   110.5 ns/el   0 allocs/op
BenchmarkStepGrid/reorder=none/layout=soa-8     100   420000 ns/op   115.0 ns/el   0 allocs/op
BenchmarkStepGrid/reorder=hilbert/layout=aos-8  100   300000 ns/op    82.3 ns/el   0 allocs/op
BenchmarkLagrangianStep-8                        50  2600000 ns/op   0 B/op   0 allocs/op
`
	got, err := aggregate(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkStepGrid/reorder=none/layout=soa-8"]; e == nil || e.NsPerEl != 110.5 {
		t.Fatalf("ns/el not aggregated as min: %+v", e)
	}
	if e := got["BenchmarkLagrangianStep-8"]; e == nil || e.NsPerEl != 0 {
		t.Fatalf("metric-free benchmark gained ns/el: %+v", e)
	}
	if h := headline(got); h != 82.3 {
		t.Fatalf("headline %g, want best point 82.3", h)
	}
}

// The headline gates in -compare at the ns/op threshold: a slower best
// point is a regression, a faster one an improvement, and records
// without the metric (legacy) skip the gate.
func TestCompareGatesHeadline(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeRecord(t, oldPath, Record{Benchmarks: map[string]*Entry{
		"BenchmarkStepGrid/reorder=hilbert/layout=aos-8": {NsOp: 1000, Runs: 5, NsPerEl: 80},
	}})
	writeRecord(t, newPath, Record{Benchmarks: map[string]*Entry{
		"BenchmarkStepGrid/reorder=hilbert/layout=aos-8": {NsOp: 1030, Runs: 5, NsPerEl: 100},
	}})
	var buf bytes.Buffer
	n, err := compareRecords(&buf, oldPath, newPath, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(buf.String(), "step_ns_per_el") {
		t.Fatalf("headline regression not gated (%d):\n%s", n, buf.String())
	}
	// Improvement direction: no regression, marked improved.
	buf.Reset()
	n, err = compareRecords(&buf, newPath, oldPath, 0.05)
	if err != nil || n != 0 {
		t.Fatalf("headline improvement flagged as regression (%d, %v)", n, err)
	}
	if !strings.Contains(buf.String(), "improved") {
		t.Fatalf("improvement not reported:\n%s", buf.String())
	}
	// Legacy record without the metric: gate skipped, no crash.
	legacyPath := filepath.Join(dir, "legacy.json")
	writeRecord(t, legacyPath, Record{Benchmarks: map[string]*Entry{
		"BenchmarkStepGrid/reorder=hilbert/layout=aos-8": {NsOp: 1000, Runs: 5},
	}})
	buf.Reset()
	if n, err = compareRecords(&buf, legacyPath, newPath, 0.05); err != nil || n != 0 {
		t.Fatalf("legacy headline compare: %d regressions, err %v\n%s", n, err, buf.String())
	}
}

// A hand-edited headline cannot dodge the gate: compare recomputes it
// from the entries.
func TestCompareHeadlineRecomputed(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeRecord(t, oldPath, Record{StepNsPerEl: 80, Benchmarks: map[string]*Entry{
		"BenchmarkStepGrid/p-8": {NsOp: 1000, Runs: 5, NsPerEl: 80},
	}})
	// The stored headline claims 80 but the entries say 120.
	writeRecord(t, newPath, Record{StepNsPerEl: 80, Benchmarks: map[string]*Entry{
		"BenchmarkStepGrid/p-8": {NsOp: 1000, Runs: 5, NsPerEl: 120},
	}})
	var buf bytes.Buffer
	n, err := compareRecords(&buf, oldPath, newPath, 0.05)
	if err != nil || n != 1 {
		t.Fatalf("forged headline slipped the gate: %d regressions, err %v\n%s", n, err, buf.String())
	}
}

// Merging the same results twice is a no-op: the reorder/layout axes
// (and every other axis) land once, and a re-run of the identical
// bench output leaves the record byte-identical apart from env.
func TestMergeIdempotent(t *testing.T) {
	in := `BenchmarkStepGrid/reorder=none/layout=soa-8     100   400000 ns/op   110.5 ns/el   0 allocs/op
BenchmarkStepGrid/reorder=hilbert/layout=aos-8  100   300000 ns/op    82.3 ns/el   0 allocs/op
`
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_step.json")

	first, err := aggregate(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrevious(path, first); err != nil {
		t.Fatal(err)
	}
	writeRecord(t, path, Record{Env: currentEnv(), StepNsPerEl: headline(first), Benchmarks: first})

	second, err := aggregate(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrevious(path, second); err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("re-merge changed the axis count: %d vs %d", len(second), len(first))
	}
	for name, e1 := range first {
		e2 := second[name]
		if e2 == nil || e1.NsOp != e2.NsOp || e1.NsPerEl != e2.NsPerEl || e1.AllocsOp != e2.AllocsOp || e1.Runs != e2.Runs {
			t.Fatalf("%s drifted across an idempotent merge: %+v vs %+v", name, e1, e2)
		}
	}
	if headline(second) != headline(first) {
		t.Fatalf("headline drifted: %g vs %g", headline(second), headline(first))
	}
}

// Records from hosts with different CPU counts are refused with an
// error naming both counts; a legacy record without env still compares,
// with a warning.
func TestCompareRefusesHostMismatch(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.json")
	two := filepath.Join(dir, "two.json")
	legacy := filepath.Join(dir, "legacy.json")
	entries := map[string]*Entry{"BenchmarkA": {NsOp: 1000, Runs: 5}}
	writeRecord(t, one, Record{Env: Env{NumCPU: 1, GOMAXPROCS: 1}, Benchmarks: entries})
	writeRecord(t, two, Record{Env: Env{NumCPU: 2, GOMAXPROCS: 2}, Benchmarks: entries})
	if err := os.WriteFile(legacy, []byte(`{"BenchmarkA": {"ns_op": 1000, "runs": 5}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	_, err := compareRecords(&buf, one, two, 0.05)
	if err == nil {
		t.Fatalf("cross-host compare accepted:\n%s", buf.String())
	}
	for _, want := range []string{"num_cpu 1", "num_cpu 2", "not comparable"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	for _, pair := range [][2]string{{legacy, two}, {two, legacy}} {
		buf.Reset()
		n, err := compareRecords(&buf, pair[0], pair[1], 0.05)
		if err != nil || n != 0 {
			t.Fatalf("legacy compare %v: %d regressions, err %v", pair, n, err)
		}
		if !strings.Contains(buf.String(), "warning") {
			t.Fatalf("legacy compare %v gave no warning:\n%s", pair, buf.String())
		}
	}

	buf.Reset()
	if n, err := compareRecords(&buf, two, two, 0.05); err != nil || n != 0 || strings.Contains(buf.String(), "warning") {
		t.Fatalf("same-host compare: %d regressions, err %v\n%s", n, err, buf.String())
	}
}
