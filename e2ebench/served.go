package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bookleaf"
	"bookleaf/internal/machine"
	"bookleaf/internal/serve"
)

// The served sweep drives an in-process durable bleaf-served through its
// HTTP handler, with no sockets, using tiny decks from the shipped suite
// so that admission, journal, set-up and result encoding are a large
// share of each job. Load stays within a 2-CPU host: 2 workers of 1
// thread and 2 client identities.
const (
	servedWorkers = 2
	// servedCapSteps caps every deck so a job lasts milliseconds.
	servedCapSteps = 20
	// openRate is the open loop's fixed arrival rate, below the closed
	// loop's ~200 jobs/s on a 2-CPU host.
	openRate = 80 // jobs/s
	// sloMs is the open loop's latency limit: a job meets it when its
	// result is fetched within sloMs of when it was due.
	sloMs = 50
	// closedShare is the share of the measuring time given to the
	// closed loop; the open loop gets the rest.
	closedShare = 0.6
	// openReps is how many times set-up opens a server: an open takes
	// well under a millisecond, so many are needed for a steady median.
	openReps = 101
)

// servedDecks are the sweep's decks; the first, sod, also gives l1_rho.
var servedDecks = []string{"sod", "waterair", "saltzmann", "sod_eulerian"}

var servedClients = []string{"client-a", "client-b"}

// servedDeck is one distinct deck of the sweep and its reference.
type servedDeck struct {
	name    string
	raw     []byte
	cfg     bookleaf.Config
	direct  *bookleaf.Result // direct bookleaf.Run of the same deck
	want    []byte           // its result, encoded as the server encodes it
	setupS  float64          // median no-step run
	predict float64          // raw machine.PredictRun seconds

	mu  sync.Mutex
	got []byte // the first served result fetched for this deck
}

// capDeck returns the shipped deck with a step cap added to [control].
func capDeck(raw []byte, steps int) []byte {
	return bytes.Replace(raw, []byte("[control]\n"), []byte(fmt.Sprintf("[control]\nmaxsteps = %d\n", steps)), 1)
}

// jobRec is one served job as the client saw it. Times run from due
// (when the job was scheduled to be sent) to fetched (result body in
// hand); start is when the server began running it, as observed from
// outside (see startTracker).
type jobRec struct {
	deck   int
	client int
	open   bool // open-loop job
	traced bool

	due, sent, submitted, start, doneAt, fetched time.Time

	job   *serve.Job // only while the job runs: a Job pins its result
	id    string
	est   float64
	bytes int
	ok    bool
	// What the per-layer metrics need from the result; the result
	// itself is not kept, so the benchmark's own heap stays flat.
	timers     map[string]float64
	nel, steps int
}

func (r *jobRec) latency() time.Duration { return r.fetched.Sub(r.due) }

// startTracker observes when queued jobs start. A queued job can only
// start when a running one finishes, and the scheduler dispatches the
// next job under the same lock that marks the finished one done; so
// each client that sees its job done re-checks the queued jobs, and
// those no longer queued started at that moment.
type startTracker struct {
	srv     *serve.Server
	mu      sync.Mutex
	pending map[*jobRec]bool
}

func (t *startTracker) submitted(r *jobRec) {
	st := t.srv.Status(r.job)
	if st.State != serve.StateQueued {
		r.start = r.submitted
		return
	}
	t.mu.Lock()
	t.pending[r] = true
	t.mu.Unlock()
}

func (t *startTracker) sawDone(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for r := range t.pending {
		if t.srv.Status(r.job).State != serve.StateQueued {
			r.start = now
			delete(t.pending, r)
		}
	}
}

// sweep is one served-sweep run.
type sweep struct {
	e     *env
	srv   *serve.Server
	h     http.Handler
	decks []*servedDeck
	track *startTracker
	mu    sync.Mutex
	jobs  []*jobRec
}

func (sw *sweep) do(r *jobRec) {
	d := sw.decks[r.deck]
	r.sent = time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(d.raw))
	req.Header.Set("X-Client", servedClients[r.client])
	rec := httptest.NewRecorder()
	sw.h.ServeHTTP(rec, req)
	r.submitted = time.Now()
	defer func() {
		sw.mu.Lock()
		sw.jobs = append(sw.jobs, r)
		sw.mu.Unlock()
	}()
	if rec.Code != http.StatusAccepted {
		r.fetched = time.Now()
		fmt.Printf("job refused: %d %s\n", rec.Code, strings.TrimSpace(rec.Body.String()))
		return
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		r.fetched = time.Now()
		return
	}
	r.est = sr.EstSeconds
	j, ok := sw.srv.Get(sr.ID)
	if !ok {
		r.fetched = time.Now()
		return
	}
	r.job, r.id = j, sr.ID
	defer func() { r.job = nil }()
	sw.track.submitted(r)
	<-j.Done()
	r.doneAt = time.Now()
	sw.track.sawDone(r.doneAt)
	if r.start.IsZero() {
		r.start = r.doneAt
	}
	get := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sr.ID, nil)
	rec = httptest.NewRecorder()
	sw.h.ServeHTTP(rec, get)
	r.fetched = time.Now()
	body := rec.Body.Bytes()
	r.bytes = len(body)
	res := sw.srv.Result(j)
	r.ok = rec.Code == http.StatusOK && res != nil
	if res != nil {
		r.timers, r.nel, r.steps = res.Timers, res.NEl, res.Steps
	}
	if r.ok {
		d.mu.Lock()
		if d.got == nil {
			d.got = append([]byte(nil), body...)
		}
		d.mu.Unlock()
	}
	if tr := sw.e.tr; tr != nil && r.traced {
		sw.traceJob(r)
	}
}

// traceJob records one job's spans: the job from due to fetched, and
// under it the generator's lateness, the submit call, the queue wait,
// the run (with its set-up and kernel timers) and the result fetch.
func (sw *sweep) traceJob(r *jobRec) {
	tr := sw.e.tr
	job := r.id
	lane := r.client
	root := tr.record("serve.job", 0, lane, job, r.due, r.latency())
	if r.sent.After(r.due) {
		tr.record("bench.generator_late", root, lane, job, r.due, r.sent.Sub(r.due))
	}
	tr.record("serve.Handler(POST /v1/jobs)", root, lane, job, r.sent, r.submitted.Sub(r.sent))
	if r.id == "" {
		return
	}
	tr.record("serve.queue_wait", root, lane, job, r.submitted, r.start.Sub(r.submitted))
	run := tr.record("serve.run", root, lane, job, r.start, r.doneAt.Sub(r.start))
	if r.timers != nil {
		attachRun(tr, run, lane, job, r.start, sw.decks[r.deck].setupS, r.timers)
	}
	tr.record("serve.Handler(GET /v1/jobs/{id})", root, lane, job, r.doneAt, r.fetched.Sub(r.doneAt))
}

// closedLoop runs one client per identity, each sending its next job
// only once the previous result is fetched, until d has passed.
func (sw *sweep) closedLoop(rng *rand.Rand, d time.Duration, traced bool) time.Duration {
	// Each client's deck sequence is drawn up front from the seed, so
	// the inputs do not depend on timing.
	seqs := make([][]int, len(servedClients))
	for c := range seqs {
		seqs[c] = make([]int, 1<<16)
		for i := range seqs[c] {
			seqs[c][i] = rng.Intn(len(sw.decks))
		}
	}
	runtime.GC() // each phase starts from the same live heap (see runDirect)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range servedClients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d && i < len(seqs[c]); i++ {
				now := time.Now()
				sw.do(&jobRec{deck: seqs[c][i], client: c, due: now, traced: traced})
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends openRate*d jobs on a seeded Poisson schedule at
// openRate, whether or not earlier jobs have finished, then waits for
// all of them. The job count is fixed rather than the phase length, so
// the tail percentile the sample supports is the same in every run.
func (sw *sweep) openLoop(rng *rand.Rand, d time.Duration, traced bool) {
	type arrival struct {
		at           time.Duration
		deck, client int
	}
	sched := make([]arrival, int(openRate*d.Seconds()))
	var at time.Duration
	for i := range sched {
		at += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		sched[i] = arrival{at, rng.Intn(len(sw.decks)), rng.Intn(len(servedClients))}
	}
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range sched {
		due := start.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			sw.do(&jobRec{deck: a.deck, client: a.client, open: true, due: due, traced: traced})
		}(a, due)
	}
	wg.Wait()
}

func servedSweep(e *env) (*outcome, error) {
	o := newOutcome()
	decks, err := loadServedDecks(e)
	if err != nil {
		return nil, err
	}

	// Set-up: serve.Open on a fresh state dir to ready, several times.
	var opens []float64
	for i := 0; i < openReps; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("open%d", i))
		var srv *serve.Server
		d := e.tr.timed("serve.Open", fmt.Sprintf("open%d", i), func() {
			srv, err = serve.Open(serve.Options{Workers: servedWorkers, Threads: 1, StateDir: dir})
		})
		if err != nil {
			return nil, fmt.Errorf("serve.Open: %w", err)
		}
		srv.Close()
		os.RemoveAll(dir)
		opens = append(opens, d.Seconds())
	}
	o.e2e["setup_s"] = median(opens)

	stateDir := filepath.Join(e.work, "state")
	srv, err := serve.Open(serve.Options{Workers: servedWorkers, Threads: 1, StateDir: stateDir})
	if err != nil {
		return nil, fmt.Errorf("serve.Open: %w", err)
	}
	sw := &sweep{e: e, srv: srv, h: srv.Handler(), decks: decks,
		track: &startTracker{srv: srv, pending: map[*jobRec]bool{}}}
	rng := rand.New(rand.NewSource(e.seed))

	closedD := time.Duration(float64(e.seconds) * closedShare)
	openD := e.seconds - closedD
	heap := startHeapSampler()
	a0 := allocMB()
	// The traced run measures each phase twice, untraced then traced,
	// in halves of the same time, so their difference is the overhead.
	var closedElapsed time.Duration
	if e.tr == nil {
		closedElapsed = sw.closedLoop(rng, closedD, false)
		sw.openLoop(rng, openD, false)
	} else {
		closedElapsed = sw.closedLoop(rng, closedD/2, false)
		sw.closedLoop(rng, closedD/2, true)
		sw.openLoop(rng, openD/2, false)
		sw.openLoop(rng, openD/2, true)
	}
	allocTotal := allocMB() - a0
	o.e2e["peak_heap_mb"] = heap.Stop()
	journalBytes := dirBytes(stateDir)
	stats := srv.Stats()
	srv.Close()

	// Correctness: every job done, and each distinct deck's served
	// result bitwise equal to a direct run of the same deck.
	for _, r := range sw.jobs {
		o.attempted++
		if !r.ok {
			o.failed++
		}
	}
	o.check("served.all_done", o.failed == 0, "%d of %d jobs failed or were refused", o.failed, o.attempted)
	var sodServed *serve.ResultJSON
	for i, d := range decks {
		var got serve.JobResponse
		ok := d.got != nil && json.Unmarshal(d.got, &got) == nil && got.Result != nil
		if ok {
			enc, _ := json.Marshal(got.Result)
			ok = bytes.Equal(enc, d.want)
		}
		o.check("served.parity."+d.name, ok, "served result vs direct bookleaf.Run, %d steps", d.direct.Steps)
		if ok && i == 0 {
			sodServed = got.Result
		}
	}
	// l1_rho is taken from the served sod result, on the direct run's
	// mesh connectivity (the parity check above makes them the same run).
	o.e2e["l1_rho"] = 0
	if sodServed != nil {
		served := *decks[0].direct
		served.X, served.Y, served.Rho, served.Time = sodServed.X, sodServed.Y, sodServed.Rho, sodServed.Time
		o.e2e["l1_rho"] = sodL1(&served)
	}

	servedMetrics(e, o, sw, closedElapsed, allocTotal, journalBytes, stats)
	return o, nil
}

// loadServedDecks reads and caps the sweep's decks and runs each once
// directly as the parity reference.
func loadServedDecks(e *env) ([]*servedDeck, error) {
	var decks []*servedDeck
	for _, name := range servedDecks {
		raw, err := os.ReadFile(filepath.Join("decks", name+".deck"))
		if err != nil {
			return nil, err
		}
		d := &servedDeck{name: name, raw: capDeck(raw, servedCapSteps)}
		if d.cfg, err = parseDeck(d.raw); err != nil {
			return nil, fmt.Errorf("deck %s: %w", name, err)
		}
		if d.cfg.MaxSteps != servedCapSteps {
			return nil, fmt.Errorf("deck %s: step cap not applied", name)
		}
		if d.direct, err = bookleaf.Run(d.cfg); err != nil {
			return nil, fmt.Errorf("deck %s direct run: %w", name, err)
		}
		if d.want, err = json.Marshal(resultJSON(d.direct)); err != nil {
			return nil, err
		}
		var setups []float64
		for i := 0; i < setupReps; i++ {
			s, err := setupRun(e, d.cfg, "setup-"+name)
			if err != nil {
				return nil, fmt.Errorf("deck %s: %w", name, err)
			}
			setups = append(setups, s)
		}
		d.setupS = median(setups)
		d.predict = machine.PredictRun(machine.RunShape{
			Problem: d.cfg.Problem, NX: d.cfg.NX, NY: d.cfg.NY, TEnd: d.cfg.TEnd,
			MaxSteps: d.cfg.MaxSteps, Threads: 1, Ranks: d.cfg.Ranks,
		}).Seconds
		decks = append(decks, d)
	}
	return decks, nil
}

// resultJSON encodes a direct run the way the server's result document
// does, field for field.
func resultJSON(res *bookleaf.Result) *serve.ResultJSON {
	return &serve.ResultJSON{
		Problem: res.Problem, NEl: res.NEl, NNd: res.NNd,
		Steps: res.Steps, Time: res.Time,
		E0: res.E0, EFinal: res.EFinal, ExternalWork: res.ExternalWork,
		Mass0: res.Mass0, MassFinal: res.MassFinal,
		Rollbacks: res.Rollbacks,
		X:         res.X, Y: res.Y, Rho: res.Rho, P: res.P, Ein: res.Ein,
		U: res.U, V: res.V,
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) float64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n)
}

func servedMetrics(e *env, o *outcome, sw *sweep, closedElapsed time.Duration, allocTotal, journalBytes float64, stats serve.Stats) {
	var closedLat, closedLatTraced, openLat, openAll, late []float64
	var closedDone, within, opened int
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	perDeck := make([][]float64, len(sw.decks))
	var estSum, runSum float64
	for _, r := range sw.jobs {
		lat := ms(r.latency())
		if !r.open {
			if !r.traced {
				closedLat = append(closedLat, lat)
				if r.ok {
					closedDone++
				}
			} else {
				closedLatTraced = append(closedLatTraced, lat)
			}
		} else {
			if !r.traced {
				opened++
				openLat = append(openLat, lat)
				if r.ok && lat <= sloMs {
					within++
				}
			}
			openAll = append(openAll, lat)
			late = append(late, ms(r.sent.Sub(r.due)))
		}
		if !r.ok {
			continue
		}
		d := sw.decks[r.deck]
		t := r.timers
		// The observed start lags the real one when the client that saw
		// the previous job finish was slow to wake, so the run is never
		// taken as shorter than the job's set-up plus kernel timers.
		floor := d.setupS + sumOf(topTimers(t))
		run := math.Max(r.doneAt.Sub(r.start).Seconds(), floor)
		perDeck[r.deck] = append(perDeck[r.deck], run)
		estSum += r.est
		runSum += run
		add("serve.submit_ms", ms(r.submitted.Sub(r.sent)))
		add("serve.run_ms", run*1e3)
		add("serve.encode_ms", ms(r.fetched.Sub(r.doneAt)))
		add("serve.result_bytes", float64(r.bytes))
		add("machine.predict_s", d.predict)
		add("hydro.qforce_s", t["qforce"])
		add("hydro.lagupdate_s", t["lagupdate"])
		add("hydro.getdt_s", t["getdt"])
		add("hydro.getacc_s", t["getacc"])
		hydro := t["qforce"] + t["lagupdate"] + t["getdt"] + t["getacc"]
		add("hydro.ns_per_el_step", hydro*1e9/float64(r.nel*max(r.steps, 1)))
		add("ale.alestep_s", t["alestep"])
		add("ale.getmesh_s", t["alegetmesh"])
		add("ale.getfvol_s", t["alegetfvol"])
		add("ale.advect_s", t["aleadvect"])
		add("ale.update_s", t["aleupdate"])
		add("typhon.comms_s", t["comms"])
		add("setup_s", d.setupS)
		add("kernels_s", floor-d.setupS)
		add("bookleaf.residual_s", run-floor)
		if r.open {
			add("serve.queue_wait_ms", ms(r.doneAt.Sub(r.submitted))-run*1e3)
		}
	}
	// End-to-end: the closed loop gives the deck-to-result time per job,
	// its percentiles and throughput; the open loop gives slo_share.
	// The open loop's latency percentiles are per-layer metrics: on a
	// 2-CPU host they swing with how the host schedules idle and busy
	// CPUs far more than the jobs' run times do (README.md).
	cp50 := median(closedLat)
	ctl, cpct := tail(closedLat)
	op50 := median(openLat)
	otl, opct := tail(openLat)
	o.e2e["wall_s"] = cp50 / 1e3
	o.e2e["job_p50_ms"] = cp50
	o.e2e["job_tail_ms"] = ctl
	o.e2e["slo_share"] = float64(within) / math.Max(float64(opened), 1)
	o.e2e["jobs_per_s"] = float64(closedDone) / closedElapsed.Seconds()
	o.e2e["alloc_mb"] = allocTotal / math.Max(float64(len(sw.jobs)), 1)
	o.layers["serve.open_p50_ms"] = op50
	o.layers["serve.open_tail_ms"] = otl
	lateTail, latePct := tail(late)
	fmt.Printf("closed loop: %d jobs in %.2f s by %d clients, %.1f jobs/s, p50 %.3f ms, tail %s ms\n",
		len(closedLat), closedElapsed.Seconds(), len(servedClients), o.e2e["jobs_per_s"], cp50, fmtTail(ctl, cpct, len(closedLat)))
	fmt.Printf("open loop: %d jobs at %d/s, p50 %.3f ms, tail %s ms, %.4f within %d ms; generator late p50 %.3f ms, tail %s ms\n",
		opened, openRate, op50, fmtTail(otl, opct, len(openLat)), o.e2e["slo_share"], sloMs,
		median(late), fmtTail(lateTail, latePct, len(late)))
	for i, d := range sw.decks {
		fmt.Printf("predict %s capped at %d steps: machine.PredictRun %.3f ms vs measured serve.run_ms %.3f ms (%d jobs), ratio %.3f\n",
			d.name, servedCapSteps, d.predict*1e3, median(perDeck[i])*1e3, len(perDeck[i]), d.predict/math.Max(median(perDeck[i]), 1e-9))
	}

	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// Means, not medians: per-job layers must add up to the mean
		// latency, and ALE appears in only a quarter of the jobs.
		o.layers[k] = mean(per[k])
	}
	setupMean, kernelMean := o.layers["setup_s"], o.layers["kernels_s"]
	delete(o.layers, "setup_s")
	delete(o.layers, "kernels_s")
	var setupParse, setupBuild, setupState []float64
	for _, d := range sw.decks {
		var sl setupLayers
		for i := 0; i < setupReps; i++ {
			if err := sl.measure(e, d.raw, d.cfg, "layers-"+d.name); err != nil {
				o.check("served.setup_layers", false, "%s: %v", d.name, err)
				break
			}
		}
		setupParse = append(setupParse, median(sl.parse))
		setupBuild = append(setupBuild, median(sl.build))
		setupState = append(setupState, median(sl.state))
	}
	o.layers["config.parse_ms"] = mean(setupParse)
	o.layers["setup.build_ms"] = mean(setupBuild)
	o.layers["hydro.state_ms"] = mean(setupState)
	o.layers["partition.split_ms"] = 0
	o.layers["typhon.halo_wait_s"] = 0
	o.layers["typhon.msgs"] = 0
	o.layers["typhon.words"] = 0
	o.layers["serve.journal_bytes"] = journalBytes / math.Max(float64(len(sw.jobs)), 1)
	o.layers["machine.est_ratio"] = estSum / math.Max(runSum, 1e-9)
	o.layers["machine.calibration_scale"] = stats.CalibrationScale
	o.layers["bench.gen_late_ms"] = lateTail
	o.layers["trace.overhead_p50_ms"] = median(closedLatTraced) - cp50
	o.layers["trace.overhead_wall_s"] = o.layers["trace.overhead_p50_ms"] / 1e3
	if e.tr != nil {
		fmt.Printf("accounting (means over jobs, ms): open-loop latency %.3f = generator late %.3f + submit %.3f + queue wait %.3f + run + fetch; run %.3f = set-up %.3f + kernel timers %.3f + residual %.3f; fetch %.3f\n",
			mean(openAll), mean(late), o.layers["serve.submit_ms"], o.layers["serve.queue_wait_ms"],
			o.layers["serve.run_ms"], setupMean*1e3, kernelMean*1e3, o.layers["bookleaf.residual_s"]*1e3, o.layers["serve.encode_ms"])
	}
}
