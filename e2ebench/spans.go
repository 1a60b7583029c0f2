package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"bookleaf/internal/obs"
)

// tracer keeps the traced run's spans in memory and writes them out in
// the obs trace_event format once the run ends, so bleaf-trace can
// merge and summarise them like any per-rank dump. The spans are taken
// from outside the program, around the calls the benchmark makes into
// it; the kernel timers a run returns are attached under its span as
// children laid end to end. A nil *tracer records nothing, which is the
// untraced path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	id, parent int // parent 0 = root
	name       string
	start      time.Time
	dur        time.Duration
	lane       int    // trace tid: the client or run the span belongs to
	job        string // operation identifier shared by one job's spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name string, parent, lane int, job string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, dur: dur, lane: lane, job: job})
	return id
}

// timed runs f, records it as a root span and returns the elapsed time.
func (t *tracer) timed(name, job string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.record(name, 0, 0, job, t0, d)
	return d
}

// children lays named durations end to end from start under parent, in
// name order, and returns their span ids by name. Kernel timers are
// totals, not intervals; laying them out this way keeps them inside
// their parent so self time stays exact.
func (t *tracer) children(parent, lane int, job string, start time.Time, prefix string, parts map[string]float64) map[string]int {
	if t == nil {
		return nil
	}
	ids := make(map[string]int, len(parts))
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	at := start
	for _, n := range names {
		d := time.Duration(parts[n] * float64(time.Second))
		ids[n] = t.record(prefix+n, parent, lane, job, at, d)
		at = at.Add(d)
	}
	return ids
}

// startOf returns the start of span id.
func (t *tracer) startOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].start
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes returns, per span name, the summed duration and self time:
// a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &layerTime{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += s.dur
		r.self += s.dur - covered(s, kids[s.id])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].start.Before(children[j].start) })
	end := parent.start.Add(parent.dur)
	var sum time.Duration
	cur := parent.start
	for _, c := range children {
		s, e := c.start, c.start.Add(c.dur)
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			sum += e.Sub(s)
			cur = e
		}
	}
	return sum
}

// writeTrace writes the spans to path as a Chrome trace_event file and
// returns what it wrote.
func (t *tracer) writeTrace(path string) (*obs.TraceFile, error) {
	t.mu.Lock()
	tf := &obs.TraceFile{TraceEvents: make([]obs.TraceEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		tf.TraceEvents = append(tf.TraceEvents, obs.TraceEvent{
			Name: s.name, Ph: "X",
			Ts:   float64(s.start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Tid:  s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return tf, nil
}
