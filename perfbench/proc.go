package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// procSnap is the process-wide cost counters at one instant. Daemons
// and clients share the benchmark process, so the deltas between two
// snapshots cover the whole staging service plus its callers — the
// cycles that staging takes from an application on the same node.
type procSnap struct {
	at       time.Time
	cpu      time.Duration // user+sys, getrusage
	alloc    uint64        // MemStats.TotalAlloc
	mallocs  uint64        // MemStats.Mallocs
	gcCycles uint32
	gcCPU    float64 // runtime estimate of GC CPU seconds
	usedCPU  float64 // runtime estimate of non-idle CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// processCPU is the user+sys CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer and RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := slices.Clone(cpuMetrics)
	metrics.Read(s)
	return procSnap{
		at:       time.Now(),
		cpu:      processCPU(),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcCPU:    s[0].Value.Float64(),
		usedCPU:  s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// procDelta is the cost of one measured window.
type procDelta struct {
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
	gcShare  float64
}

func (b procSnap) since(a procSnap) procDelta {
	return procDelta{
		cpu:      b.cpu - a.cpu,
		alloc:    b.alloc - a.alloc,
		mallocs:  b.mallocs - a.mallocs,
		gcCycles: b.gcCycles - a.gcCycles,
		gcShare:  ratio(b.gcCPU-a.gcCPU, b.usedCPU-a.usedCPU),
	}
}

// rssPeakMiB is the peak resident set of the process so far, set-up
// included.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see takeSnap
	return float64(ru.Maxrss) * 1024 / mib          // Linux reports KiB
}

// sampler polls gauges that only exist as instantaneous readings
// every period while the window is open: the memory the Go runtime
// holds from the OS, the live heap, and (traced runs only) the daemon's
// pending queue.
type sampler struct {
	// heldPeak is the per-slice peak of mapped minus released memory.
	heldPeak  [windowSlices]uint64
	heapPeak  uint64
	pending   sample
	stop      chan struct{}
	wg        sync.WaitGroup
	readQueue func() int // nil: not sampled
}

var memMetrics = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func startSampler(period time.Duration, win *window, readQueue func() int) *sampler {
	s := &sampler{stop: make(chan struct{}), readQueue: readQueue}
	mem := slices.Clone(memMetrics)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				k := win.sliceOf(now)
				if k < 0 {
					continue
				}
				metrics.Read(mem)
				s.heldPeak[k] = max(s.heldPeak[k], mem[0].Value.Uint64()-mem[1].Value.Uint64())
				s.heapPeak = max(s.heapPeak, mem[2].Value.Uint64())
				if s.readQueue != nil {
					s.pending.add(float64(s.readQueue()))
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for its goroutine to exit; the
// fields are safe to read afterwards.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}
