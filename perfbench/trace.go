package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name   string
	id     int
	parent int // 0 for a root span
	req    int // request or operation index; -1 for kernel timings
	start  time.Duration
	end    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced run measures.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, req: req, start: now, end: -1})
	return id
}

// finish closes span id.
func (r *recorder) finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time of its closed
// spans: each span's duration minus the part of it that its children
// cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		out[s.name] += s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto). Each request gets its own track.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, traceEvent{Name: s.name, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.req + 2, Args: map[string]int{"id": s.id, "parent": s.parent, "req": s.req}})
	}
	r.mu.Unlock()
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
