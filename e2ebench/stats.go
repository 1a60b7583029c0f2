package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles is the ladder tail() climbs: the tail is the highest
// of these that still leaves at least minBeyond samples above it.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

const minBeyond = 10

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and that percentile. A sample too small to support
// any tail percentile reports its median, labelled p50.
func tail(xs []float64) (v, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= minBeyond {
			return quantile(xs, p/100), p
		}
	}
	return median(xs), 50
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak live heap while it runs: the heap marked
// live by each garbage collection (/gc/heap/live:bytes). Unlike the heap
// in use at an instant, it depends little on when collections happen to
// run. The runtime keeps no high-water mark, so a background goroutine
// samples it every period; the value changes only once per collection,
// so a coarse period loses little.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

// heapSamplePeriod is coarse on purpose: on a 2-CPU host a sampler
// waking every few milliseconds preempts the ranks it measures.
const heapSamplePeriod = 25 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Take returns the peak in MB since the last Take and starts a new one.
func (h *heapSampler) Take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / 1e6
}

// Stop ends sampling, waits for the sampler goroutine and returns the
// peak in MB since the last Take.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.Take()
}

// allocMB returns the bytes allocated by the whole process so far, in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// fmtTail renders a tail value with the percentile and sample count it
// rests on.
func fmtTail(v, pct float64, n int) string {
	return fmt.Sprintf("%.4g (p%g of %d)", v, pct, n)
}
