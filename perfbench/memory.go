package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// liveHeapMetric is the heap the last GC cycle found reachable;
// allocsMetric counts every byte ever allocated on the heap.
const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
)

// allocatedBytes reads the cumulative heap allocation without stopping
// the world, so it can bracket a timed call.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: allocsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapSampler reads the live heap every tick and keeps the largest
// value of each window. The live heap is what the program holds at
// once; the process's peak RSS, by contrast, depends on how far
// garbage ran ahead of the collector and moves by tens of percent
// between identical runs. Even the live heap has rare timing-dependent
// spikes while two workers hold their largest state at the same GC, so
// the benchmark reports the median window, not the maximum.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	windows []heapWindow
}

type heapWindow struct {
	end  time.Time
	peak uint64
}

func startHeapSampler(tick, window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(tick)
		defer t.Stop()
		var peak uint64
		end := clockNow().Add(window)
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
			if now := clockNow(); !now.Before(end) {
				h.mu.Lock()
				h.windows = append(h.windows, heapWindow{end: now, peak: peak})
				h.mu.Unlock()
				peak, end = 0, now.Add(window)
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// medianMB returns the median peak, in MB, of the windows that ended
// within [from, to].
func (h *heapSampler) medianMB(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var peaks []float64
	for _, w := range h.windows {
		if !w.end.Before(from) && !w.end.After(to) {
			peaks = append(peaks, float64(w.peak)/(1<<20))
		}
	}
	return median(peaks)
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
