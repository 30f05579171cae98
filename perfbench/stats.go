package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durations is a sample of span lengths.
type durations []time.Duration

// quantile returns the q-quantile (0 ≤ q ≤ 1) in microseconds by the
// nearest-rank rule, sorting the sample in place; 0 for an empty sample.
func (d durations) quantileUS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q*float64(len(d))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return float64(d[i]) / float64(time.Microsecond)
}

// sum returns the total length of the sample.
func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// cpuWork is records handled and the CPU time (user+system) the
// process spent on them.
type cpuWork struct {
	records int
	cpu     time.Duration
}

func (w *cpuWork) add(o cpuWork) { w.records, w.cpu = w.records+o.records, w.cpu+o.cpu }

// rate is records per CPU second; 0 when nothing was timed, as when
// every round's fold failed its check.
func (w cpuWork) rate() float64 {
	if w.cpu <= 0 {
		return 0
	}
	return float64(w.records) / w.cpu.Seconds()
}

// repeatCPU runs f, which handles n records, repeatedly and returns the
// records and CPU time of all the calls. The calls are single-threaded
// apart from the collector, so their CPU time is their wall time on a
// CPU of their own; unlike wall time, it does not count the time a
// shared host lends the CPU to another tenant. Every call starts from a
// collected heap, as a fresh `conferr report` or `conferr convert`
// process does, so the garbage of earlier calls is not collected on its
// account. It stops after at least minReps calls and minPhase of wall
// time, or at f's first error.
func repeatCPU(n int, minReps int, minPhase time.Duration, f func() error) (cpuWork, error) {
	var w cpuWork
	start := time.Now()
	for calls := 0; calls < minReps || time.Since(start) < minPhase; calls++ {
		runtime.GC()
		c0 := cpuTime()
		if err := f(); err != nil {
			return cpuWork{}, err
		}
		w.add(cpuWork{n, cpuTime() - c0})
	}
	return w, nil
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// operating system: what it has mapped read-write less what it has
// returned. The Go heap is most of the process's resident set.
type memSampler struct {
	stop chan struct{}
	done chan float64
}

// sampleMem starts sampling every 10 ms.
func sampleMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64()-s[1].Value.Uint64())
		}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-t.C:
			case <-m.stop:
				read()
				m.done <- float64(peak) / 1e6
				return
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	return <-m.done
}
