package main

import (
	goruntime "runtime"
	"time"
)

// Set-up is repeated and its median reported: one set-up takes well under
// a millisecond on some workloads, where a single sample is mostly timer
// and scheduler jitter.
const (
	minSetups    = 21
	maxSetups    = 301
	setupSeconds = 0.5
)

// repeatSetup runs mk until it has at least minSetups samples and
// setupSeconds of set-up time (at most maxSetups), closing every result
// but the last, which it returns with the median set-up time in seconds
// and the sample count. The heap is collected before each sample, so
// every set-up starts from a small heap as it would in a fresh process.
func repeatSetup[T any](mk func() (T, error), closeFn func(T)) (T, float64, int, error) {
	var (
		last  T
		times []float64
		total float64
	)
	for len(times) < maxSetups && (len(times) < minSetups || total < setupSeconds) {
		if len(times) > 0 {
			closeFn(last)
		}
		goruntime.GC()
		t0 := time.Now()
		v, err := mk()
		d := time.Since(t0).Seconds()
		if err != nil {
			var zero T
			return zero, 0, 0, err
		}
		last = v
		times = append(times, d)
		total += d
	}
	return last, median(times), len(times), nil
}

// warmFor is the unmeasured lead-in before a measured interval.
func warmFor(seconds float64) time.Duration {
	return time.Duration(min(1, seconds/5) * float64(time.Second))
}

// windows splits a measured interval into windows of about one second.
// Rates are reported as the median over windows, so a host slowdown that
// hits part of a run moves the figure less than it moves a whole-run mean.
func windows(seconds float64) (int, time.Duration) {
	n := int(seconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n, time.Duration(seconds / float64(n) * float64(time.Second))
}

// meter samples the process's CPU time at every window edge of a measured
// interval, and its allocation and GC counters at both ends.
type meter struct {
	start  time.Time
	end    time.Time
	window time.Duration
	nw     int
	cpu    []time.Duration
	m0, m1 goruntime.MemStats
	done   chan struct{}
}

// startMeter measures seconds starting warm from now.
func startMeter(warm time.Duration, seconds float64) *meter {
	nw, window := windows(seconds)
	m := &meter{window: window, nw: nw, cpu: make([]time.Duration, nw+1), done: make(chan struct{})}
	m.start = time.Now().Add(warm)
	m.end = m.start.Add(time.Duration(nw) * window)
	go func() {
		defer close(m.done)
		time.Sleep(time.Until(m.start))
		goruntime.ReadMemStats(&m.m0)
		for w := 0; w <= nw; w++ {
			time.Sleep(time.Until(m.start.Add(time.Duration(w) * window)))
			m.cpu[w] = cpuTime()
		}
		goruntime.ReadMemStats(&m.m1)
	}()
	return m
}

// slot returns the window t falls in, or -1 outside the measured interval.
func (m *meter) slot(t time.Time) int {
	if t.Before(m.start) || !t.Before(m.end) {
		return -1
	}
	return int(t.Sub(m.start) / m.window)
}

// measured is what a meter reports for the ops of a measured interval.
// Rates, CPU per op and latency percentiles are medians over windows.
type measured struct {
	windows    int
	seconds    float64
	lat        *hist // op latency over the whole interval
	rate       float64
	cpuPerOp   float64 // process CPU µs per op
	p50, p95   float64 // op latency, µs
	allocPerOp float64
	gcPerS     float64
	cpu        time.Duration // process CPU time over the whole interval
}

// wholeRun gives the whole-interval figures beside the per-window
// medians the metrics report.
func (m measured) wholeRun() map[string]float64 {
	return map[string]float64{
		"ops_per_s":     ratio(float64(m.lat.n), m.seconds),
		"cpu_us_per_op": ratio(float64(m.cpu)/1e3, float64(m.lat.n)),
		"op_p50_us":     m.lat.usAt(0.50),
		"op_p95_us":     m.lat.usAt(0.95),
		"op_p99_us":     m.lat.usAt(0.99),
	}
}

// newWindows returns one latency histogram per window of m.
func (m *meter) newWindows() []*hist {
	w := make([]*hist, m.nw)
	for i := range w {
		w[i] = newHist()
	}
	return w
}

// finish waits for the last window edge and summarizes wins, the
// latencies of the ops that completed in each window.
func (m *meter) finish(wins []*hist) measured {
	<-m.done
	r := measured{windows: m.nw, seconds: float64(m.nw) * m.window.Seconds(), lat: newHist()}
	var rates, cpus, p50s, p95s []float64
	for w, h := range wins {
		r.lat.merge(h)
		rates = append(rates, float64(h.n)/m.window.Seconds())
		if h.n > 0 {
			cpus = append(cpus, float64(m.cpu[w+1]-m.cpu[w])/1e3/float64(h.n))
			p50s = append(p50s, h.usAt(0.50))
			p95s = append(p95s, h.usAt(0.95))
		}
	}
	r.rate, r.cpuPerOp, r.p50, r.p95 = median(rates), median(cpus), median(p50s), median(p95s)
	r.cpu = m.cpu[m.nw] - m.cpu[0]
	if r.lat.n > 0 {
		r.allocPerOp = float64(m.m1.TotalAlloc-m.m0.TotalAlloc) / float64(r.lat.n)
	}
	r.gcPerS = float64(m.m1.NumGC-m.m0.NumGC) / r.seconds
	return r
}
