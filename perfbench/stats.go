package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perProblem returns the q-quantile of each problem's samples, averaged
// over the problems. Every matrix weighs the same, and the figure never
// falls on the gap between two matrices' latency clusters, where a pooled
// percentile would jump from run to run.
func perProblem(samples [][]float64, q float64) float64 {
	var s float64
	for _, xs := range samples {
		s += quantile(xs, q)
	}
	return s / float64(len(samples))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler records the live Go heap (the heap the last GC marked
// live) once per GC cycle it observes while it runs.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []metrics.Sample
	cycle   uint64
	live    []float64 // bytes, one per observed GC cycle
}

// startHeapSampler starts sampling. It first runs a GC, so every measured
// phase starts from the same heap state whatever set-up left behind.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{
		stop:    make(chan struct{}),
		samples: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}},
	}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// sample runs on the sampler goroutine only (and before it starts or
// after it ends).
func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	if h.samples[0].Value.Kind() != metrics.KindUint64 || h.samples[1].Value.Kind() != metrics.KindUint64 {
		return
	}
	if c := h.samples[0].Value.Uint64(); c != h.cycle || len(h.live) == 0 {
		h.cycle = c
		h.live = append(h.live, float64(h.samples[1].Value.Uint64()))
	}
}

// Stop ends sampling and returns the median live heap over the observed
// GC cycles, in MB. The largest cycle depends on which transient buffers
// a cycle happened to mark, and moved by up to 40% between runs.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return median(h.live) / (1 << 20)
}

// runtimeDelta measures allocation and GC pause over an interval.
type runtimeDelta struct {
	alloc, pauseNS uint64
	gcs            uint32
}

func readRuntime() runtimeDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeDelta{alloc: m.TotalAlloc, pauseNS: m.PauseTotalNs, gcs: m.NumGC}
}

// allocKBPerOp and gcPauseMS summarise the interval since start.
func (start runtimeDelta) since(ops int) (allocKBPerOp, gcPauseMSPerGC float64) {
	end := readRuntime()
	if ops > 0 {
		allocKBPerOp = float64(end.alloc-start.alloc) / 1024 / float64(ops)
	}
	if n := end.gcs - start.gcs; n > 0 {
		gcPauseMSPerGC = float64(end.pauseNS-start.pauseNS) / 1e6 / float64(n)
	}
	return allocKBPerOp, gcPauseMSPerGC
}
