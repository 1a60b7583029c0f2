package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bookleaf"
	"bookleaf/internal/config"
	"bookleaf/internal/exact"
	"bookleaf/internal/machine"
	"bookleaf/internal/partition"
	"bookleaf/internal/setup"
)

// directSpec is a workload of back-to-back bookleaf.Run calls on one
// deck: one client that waits for each result before asking again.
type directSpec struct {
	name  string
	deck  string // deck file, relative to the checkout root
	ranks int
	// nx, ny widen the deck's mesh when non-zero.
	nx, ny int
	// sloS is the deck-to-result latency limit slo_share counts against.
	sloS float64
	// check validates one completed run and returns its L1 density
	// error against the exact solution.
	check func(o *outcome, res *bookleaf.Result, first bool) float64
}

// Correctness bounds. The L1 bounds sit ~10-20% above the values the
// program gives when the benchmark was written (Noh 1.548, element-weighted, so the
// wall-heated and smeared shocked core that holds half the elements
// dominates it; Sod 800x8 Eulerian 0.002095): the error is
// deterministic, so a lossy change trips them.
const (
	nohL1Bound      = 1.7
	nohDriftBound   = 1e-10
	sodEuL1Bound    = 0.0025
	massRelBound    = 1e-12
	setupReps       = 15 // no-step runs per set-up measurement
	minDirectRuns   = 3
	nohSLOSeconds   = 30
	sodEuSLOSeconds = 20
)

func nohTwoRank(e *env) (*outcome, error) {
	return runDirect(e, directSpec{
		name: "noh-2rank", deck: "decks/noh.deck", ranks: 2, sloS: nohSLOSeconds,
		check: func(o *outcome, res *bookleaf.Result, first bool) float64 {
			l1 := nohL1(res)
			drift := res.EnergyDrift()
			if first || l1 > nohL1Bound || drift > nohDriftBound {
				o.check("noh.l1_rho", l1 <= nohL1Bound, "L1 %.6g (bound %g)", l1, nohL1Bound)
				o.check("noh.energy_drift", drift <= nohDriftBound, "drift %.3g (bound %g)", drift, nohDriftBound)
			}
			return l1
		},
	})
}

func sodEulerian(e *env) (*outcome, error) {
	knownEulerianFailure()
	return runDirect(e, directSpec{
		name: "sod-eulerian", deck: "decks/sod_eulerian.deck", ranks: 1,
		nx: 800, ny: 8, sloS: sodEuSLOSeconds,
		check: func(o *outcome, res *bookleaf.Result, first bool) float64 {
			l1 := sodL1(res)
			dm := math.Abs(res.MassFinal-res.Mass0) / res.Mass0
			if first || l1 > sodEuL1Bound || dm > massRelBound {
				o.check("sod.l1_rho", l1 <= sodEuL1Bound, "L1 %.6g (bound %g)", l1, sodEuL1Bound)
				o.check("sod.mass", dm <= massRelBound, "relative mass change %.3g (bound %g)", dm, massRelBound)
			}
			return l1
		},
	})
}

// knownEulerianFailure runs the shipped Eulerian Sod deck, unchanged,
// at two ranks. The run aborts mid-way with a negative corner mass
// after remap while the serial run of the same deck completes; the
// outcome is printed as a known failure and counts in no metric.
func knownEulerianFailure() {
	raw, err := os.ReadFile("decks/sod_eulerian.deck")
	var cfg bookleaf.Config
	if err == nil {
		cfg, err = parseDeck(raw)
	}
	if err == nil {
		cfg.Ranks = 2
		_, err = bookleaf.Run(cfg)
	}
	if err != nil {
		fmt.Printf("known-failure sod_eulerian.deck ranks=2: %v\n", err)
		return
	}
	fmt.Printf("known-failure sod_eulerian.deck ranks=2: run completed; the known failure no longer reproduces\n")
}

func parseDeck(raw []byte) (bookleaf.Config, error) {
	d, err := config.Parse(bytes.NewReader(raw))
	if err != nil {
		return bookleaf.Config{}, err
	}
	return bookleaf.ConfigFromDeck(d)
}

// nohL1 is the L1 density error of a Noh result against the exact
// similarity solution at the run's final time.
func nohL1(res *bookleaf.Result) float64 {
	noh := exact.NewNoh()
	rs, rho := res.RadialProfile(res.Rho)
	return bookleaf.L1Error(rs, rho, func(r float64) float64 {
		v, _, _, _ := noh.Sample(r, res.Time)
		return v
	})
}

// sodL1 is the L1 density error of a Sod result against the exact
// Riemann solution at the run's final time.
func sodL1(res *bookleaf.Result) float64 {
	rp := exact.Sod(0.5)
	xs, rho := res.XProfile(res.Rho)
	return bookleaf.L1Error(xs, rho, func(x float64) float64 {
		s, err := rp.Sample(x, res.Time)
		if err != nil {
			return math.NaN()
		}
		return s.Rho
	})
}

// setupLayers times the calls a run's set-up is made of, made from
// outside: deck parse and mapping, mesh build, partition, state build.
type setupLayers struct{ parse, build, split, state []float64 }

func (l *setupLayers) measure(e *env, raw []byte, cfg bookleaf.Config, job string) error {
	var err error
	d := e.tr.timed("config.Parse+ConfigFromDeck", job, func() { _, err = parseDeck(raw) })
	if err != nil {
		return err
	}
	l.parse = append(l.parse, ms(d))
	var p *setup.Problem
	d = e.tr.timed("setup.ByName", job, func() {
		p, err = setup.ByName(cfg.Problem, cfg.NX, cfg.NY, cfg.SedovEnergy)
	})
	if err != nil {
		return err
	}
	l.build = append(l.build, ms(d))
	if cfg.Ranks > 1 {
		d = e.tr.timed("partition.RCBMesh+Split", job, func() {
			var part []int
			if part, err = partition.RCBMesh(p.Mesh, cfg.Ranks); err == nil {
				_, err = partition.Split(p.Mesh, part, cfg.Ranks)
			}
		})
		if err != nil {
			return err
		}
		l.split = append(l.split, ms(d))
	}
	d = e.tr.timed("setup.Problem.NewState", job, func() { _, err = p.NewState() })
	if err != nil {
		return err
	}
	l.state = append(l.state, ms(d))
	return nil
}

func (l *setupLayers) report(layers map[string]float64) {
	layers["config.parse_ms"] = median(l.parse)
	layers["setup.build_ms"] = median(l.build)
	layers["partition.split_ms"] = median(l.split)
	layers["hydro.state_ms"] = median(l.state)
}

// noStepEnd is an end time that admits no step: the drivers stop once
// t >= tEnd - 1e-12, which holds at t = 0.
const noStepEnd = 1e-300

// setupRun times Run on cfg with an end time that admits no step: the
// whole set-up a run pays before its first step, plus result assembly.
func setupRun(e *env, cfg bookleaf.Config, job string) (float64, error) {
	cfg.TEnd = noStepEnd
	var res *bookleaf.Result
	var err error
	d := e.tr.timed("bookleaf.Run(no step)", job, func() { res, err = bookleaf.Run(cfg) })
	if err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	if res.Steps != 0 {
		return 0, fmt.Errorf("set-up run took %d steps, want 0", res.Steps)
	}
	return d.Seconds(), nil
}

// topTimers returns the run's top-level kernel timers: the ALE phase
// timers nest inside alestep and are left out so the sum is not
// counted twice.
func topTimers(t map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t {
		if strings.HasPrefix(k, "ale") && k != "alestep" {
			continue
		}
		out[k] = v
	}
	return out
}

func aleTimers(t map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t {
		if strings.HasPrefix(k, "ale") && k != "alestep" {
			out[k] = v
		}
	}
	return out
}

func sumOf(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// attachRun hangs a finished run's set-up and kernel timers under its
// span: a set-up child of the measured no-step duration, then the
// top-level timers, with the ALE phases under alestep. What the
// children leave uncovered is the driver residual.
func attachRun(tr *tracer, runID, lane int, job string, start time.Time, setupS float64, timers map[string]float64) {
	if tr == nil {
		return
	}
	tr.children(runID, lane, job, start, "bookleaf.", map[string]float64{"setup": setupS})
	at := start.Add(time.Duration(setupS * float64(time.Second)))
	ids := tr.children(runID, lane, job, at, "kernel.", topTimers(timers))
	if id, ok := ids["alestep"]; ok {
		tr.children(id, lane, job, tr.startOf(id), "kernel.", aleTimers(timers))
	}
}

// runSample is one measured deck-to-result run: what the metrics need
// from its result, taken as soon as the run returns. The result itself
// is not kept, so one run's data does not raise the next one's heap.
type runSample struct {
	wall, alloc, heap float64
	traced, ok        bool
	l1                float64
	timers            map[string]float64
	haloWaitNs        int64
	msgs, words       int64
	nel, steps        int
}

func runDirect(e *env, sp directSpec) (*outcome, error) {
	o := newOutcome()
	raw, err := os.ReadFile(sp.deck)
	if err != nil {
		return nil, err
	}
	// toConfig is the deck-to-Config step every measured run pays.
	toConfig := func() (bookleaf.Config, error) {
		c, err := parseDeck(raw)
		c.Ranks, c.Threads = sp.ranks, 1
		if sp.nx > 0 {
			c.NX, c.NY = sp.nx, sp.ny
		}
		return c, err
	}
	cfg, err := toConfig()
	if err != nil {
		return nil, err
	}

	// Set-up: the no-step runs double as warm-up for the timed loop.
	var setups []float64
	var sl setupLayers
	for i := 0; i < setupReps; i++ {
		job := fmt.Sprintf("setup%d", i)
		s, err := setupRun(e, cfg, job)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if e.tr != nil {
			if err := sl.measure(e, raw, cfg, job); err != nil {
				return nil, err
			}
		}
	}
	setupS := median(setups)
	o.e2e["setup_s"] = setupS

	heap := startHeapSampler()
	var samples []runSample
	start := time.Now()
	for len(samples) < minDirectRuns || time.Since(start) < e.seconds-time.Duration(samples[len(samples)-1].wall*float64(time.Second)/2) {
		i := len(samples)
		// The traced run alternates traced and untraced samples so the
		// difference of their medians is the tracing overhead.
		tr := e.tr
		if i%2 == 1 {
			tr = nil
		}
		job := fmt.Sprintf("run%d", i)
		// Collect before each run, as testing.B does before a benchmark:
		// every run then starts from the same live heap, so its
		// collections, and with them its peak heap, fall at the same
		// points.
		runtime.GC()
		heap.Take()
		a0 := allocMB()
		t0 := time.Now()
		c, err := toConfig()
		var res *bookleaf.Result
		if err == nil {
			res, err = bookleaf.Run(c)
		}
		wall := time.Since(t0)
		a1 := allocMB()
		peak := heap.Take()
		o.attempted++
		if err != nil {
			o.failed++
			o.check("run", false, "%s run %d: %v", sp.name, i, err)
			samples = append(samples, runSample{wall: wall.Seconds(), alloc: a1 - a0, heap: peak})
			continue
		}
		if tr != nil {
			id := tr.record("bookleaf.Run", 0, 0, job, t0, wall)
			attachRun(tr, id, 0, job, t0, setupS, res.Timers)
		}
		before := len(o.failures)
		l1 := sp.check(o, res, i == 0)
		if len(o.failures) > before {
			o.failed++
		}
		samples = append(samples, runSample{
			wall: wall.Seconds(), alloc: a1 - a0, heap: peak, traced: tr != nil, ok: true,
			l1: l1, timers: res.Timers, haloWaitNs: res.Obs.Counters["halo_wait_ns"],
			msgs: res.CommMsgs, words: res.CommWords, nel: res.NEl, steps: res.Steps,
		})
	}
	heap.Stop()

	var walls, allocs, heaps, within, l1s []float64
	var ok []runSample
	for _, s := range samples {
		walls = append(walls, s.wall)
		allocs = append(allocs, s.alloc)
		heaps = append(heaps, s.heap)
		if !s.ok {
			continue
		}
		l1s = append(l1s, s.l1)
		if s.wall <= sp.sloS {
			within = append(within, s.wall)
		}
		ok = append(ok, s)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: every run failed", sp.name)
	}
	msgs, words, steps := ok[0].msgs, ok[0].words, ok[0].steps
	same := true
	for _, s := range ok {
		same = same && s.msgs == msgs && s.words == words && s.steps == steps
	}
	o.check("counts.repeat", same, "steps %d, typhon msgs %d, words %d in every run", steps, msgs, words)

	wallS := median(walls)
	tailMs, pct := tail(walls)
	o.e2e["wall_s"] = wallS
	o.e2e["job_p50_ms"] = wallS * 1e3
	o.e2e["job_tail_ms"] = tailMs * 1e3
	o.e2e["slo_share"] = float64(len(within)) / float64(len(samples))
	o.e2e["jobs_per_s"] = float64(len(samples)) / sum(walls)
	o.e2e["alloc_mb"] = median(allocs)
	o.e2e["peak_heap_mb"] = maxOf(heaps)
	o.e2e["l1_rho"] = median(l1s)
	fmt.Printf("runs %d: wall median %.4f s, tail %s s, set-up median %.4f s over %d no-step runs\n",
		len(samples), wallS, fmtTail(tailMs, pct, len(walls)), setupS, len(setups))

	pred := machine.PredictRun(machine.RunShape{
		Problem: cfg.Problem, NX: cfg.NX, NY: cfg.NY, TEnd: cfg.TEnd, MaxSteps: cfg.MaxSteps,
		Threads: cfg.Threads, Ranks: cfg.Ranks,
	})
	fmt.Printf("predict %s %dx%d ranks=%d: machine.PredictRun %.4f s (%d steps) vs measured wall %.4f s (%d steps), ratio %.3f\n",
		cfg.Problem, cfg.NX, cfg.NY, cfg.Ranks, pred.Seconds, pred.Steps, wallS, steps, pred.Seconds/wallS)

	directLayers(e, o, sp, ok, setupS, &sl, pred.Seconds)
	return o, nil
}

// directLayers fills the per-layer metrics from the traced samples (all
// samples when the run is untraced, where they are not printed).
func directLayers(e *env, o *outcome, sp directSpec, ok []runSample, setupS float64, sl *setupLayers, predS float64) {
	var traced, untraced []float64
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, s := range ok {
		if !s.traced {
			untraced = append(untraced, s.wall)
			if e.tr != nil {
				continue
			}
		} else {
			traced = append(traced, s.wall)
		}
		t := s.timers
		add("hydro.qforce_s", t["qforce"])
		add("hydro.lagupdate_s", t["lagupdate"])
		add("hydro.getdt_s", t["getdt"])
		add("hydro.getacc_s", t["getacc"])
		hydro := t["qforce"] + t["lagupdate"] + t["getdt"] + t["getacc"]
		add("hydro.ns_per_el_step", hydro*1e9/float64(s.nel*max(s.steps, 1)))
		add("ale.alestep_s", t["alestep"])
		add("ale.getmesh_s", t["alegetmesh"])
		add("ale.getfvol_s", t["alegetfvol"])
		add("ale.advect_s", t["aleadvect"])
		add("ale.update_s", t["aleupdate"])
		add("typhon.comms_s", t["comms"])
		add("typhon.halo_wait_s", float64(s.haloWaitNs)/1e9)
		add("typhon.msgs", float64(s.msgs))
		add("typhon.words", float64(s.words))
		add("kernels_s", sumOf(topTimers(t)))
		add("bookleaf.residual_s", s.wall-setupS-sumOf(topTimers(t)))
		add("machine.est_ratio", predS/s.wall)
	}
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.layers[k] = median(per[k])
	}
	kernels := o.layers["kernels_s"]
	delete(o.layers, "kernels_s")
	sl.report(o.layers)
	o.layers["machine.predict_s"] = predS
	o.layers["machine.calibration_scale"] = 0
	for _, k := range []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms", "serve.encode_ms",
		"serve.result_bytes", "serve.journal_bytes", "serve.open_p50_ms", "serve.open_tail_ms", "bench.gen_late_ms"} {
		o.layers[k] = 0
	}
	if e.tr != nil && len(traced) > 0 && len(untraced) > 0 {
		o.layers["trace.overhead_wall_s"] = median(traced) - median(untraced)
		o.layers["trace.overhead_p50_ms"] = (median(traced) - median(untraced)) * 1e3
	} else {
		o.layers["trace.overhead_wall_s"] = 0
		o.layers["trace.overhead_p50_ms"] = 0
	}
	if e.tr != nil {
		fmt.Printf("accounting (medians of traced runs): wall %.4f s = set-up %.4f + kernel timers %.4f + residual %.4f\n",
			median(traced), setupS, kernels, o.layers["bookleaf.residual_s"])
	}
}
