package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// usage is a snapshot of the process's cumulative resource use.
type usage struct {
	cpu    time.Duration // user + system CPU time (getrusage)
	alloc  uint64        // heap bytes allocated (MemStats.TotalAlloc)
	gcs    uint32        // completed GC cycles
	pauses uint64        // total GC stop-the-world pause, ns
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		gcs:    ms.NumGC,
		pauses: ms.PauseTotalNs,
	}
}

// sub returns the resource use between earlier and u.
func (u usage) sub(earlier usage) usage {
	return usage{u.cpu - earlier.cpu, u.alloc - earlier.alloc, u.gcs - earlier.gcs, u.pauses - earlier.pauses}
}

// sampler polls the live heap size and a caller-supplied gauge every
// period until stopped, keeping the maxima. It runs only in traced runs.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	heapPeak uint64
	gaugeMax int
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startSampler(period time.Duration, gauge func() int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		probe := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(probe)
			g := 0
			if gauge != nil {
				g = gauge()
			}
			s.mu.Lock()
			s.heapPeak = max(s.heapPeak, probe[0].Value.Uint64())
			s.gaugeMax = max(s.gaugeMax, g)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the maxima.
func (s *sampler) finish() (heapPeak uint64, gaugeMax int) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapPeak, s.gaugeMax
}
