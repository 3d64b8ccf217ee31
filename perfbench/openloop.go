package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the timing of one open-loop request.
type sample struct {
	due, sent, done time.Time
}

// latency is measured from when the request was due, so a request that
// waited for a free client behind a stall is charged for that wait.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests on a fixed schedule, request i due at
// start + i/rate, from at most clients goroutines. It never drops or
// merges a due time: when every client is busy, the next request goes
// out as soon as one frees up, and its latency still counts from its due
// time. Client c calls prep(c, i) before waiting for request i's due
// time, then do(c, i), which performs the request and returns when its
// answer had fully arrived. openLoop returns when every request has
// completed or ctx is done; unsent requests keep a zero sent time.
func openLoop(ctx context.Context, n int, rate float64, clients int, prep func(c, i int), do func(c, i int) time.Time) []sample {
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				prep(c, i)
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				sent := time.Now()
				done := do(c, i)
				samples[i] = sample{due: due, sent: sent, done: done}
			}
		}(c)
	}
	wg.Wait()
	return samples
}
